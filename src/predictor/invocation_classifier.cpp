#include "predictor/invocation_classifier.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "math/stats.hpp"
#include "predictor/lstm.hpp"

namespace smiless::predictor {

struct InvocationClassifier::Impl {
  Options opts;
  Rng rng;
  LstmLayer lstm;
  math::Matrix head_w;  // K x H
  std::vector<double> head_b;
  int classes = 2;
  double norm_mean = 0.0, norm_std = 1.0;
  bool trained = false;

  explicit Impl(const Options& o)
      : opts(o),
        rng(o.lstm.seed),
        lstm(1, o.lstm.hidden, rng),
        head_w(o.max_buckets, o.lstm.hidden),
        head_b(o.max_buckets, 0.0) {
    SMILESS_CHECK(o.bucket_size >= 1 && o.max_buckets >= 2);
    for (std::size_t r = 0; r < head_w.rows(); ++r)
      for (std::size_t c = 0; c < head_w.cols(); ++c) head_w(r, c) = rng.uniform(-0.3, 0.3);
  }

  int bucket_of(double count) const {
    const int b = static_cast<int>(count) / opts.bucket_size;
    return std::min(b, classes - 1);
  }

  double normalize(double count) const { return (count - norm_mean) / norm_std; }

  /// Class logits of hidden state `h` into `z`.
  void logits(std::span<const double> h, std::vector<double>& z) const {
    z.resize(static_cast<std::size_t>(classes));
    for (int k = 0; k < classes; ++k) {
      const double* w = head_w.data() + static_cast<std::size_t>(k) * head_w.cols();
      double acc = head_b[k];
      for (std::size_t j = 0; j < h.size(); ++j) acc += w[j] * h[j];
      z[k] = acc;
    }
  }

  static void softmax(std::vector<double>& z) {
    const double m = *std::max_element(z.begin(), z.end());
    double sum = 0.0;
    for (auto& v : z) {
      v = std::exp(v - m);
      sum += v;
    }
    for (auto& v : z) v /= sum;
  }

  void train(std::span<const double> counts) {
    if (counts.size() <= opts.lstm.seq_len + 1) {
      trained = false;
      return;
    }
    norm_mean = math::mean(counts);
    norm_std = std::max(1e-9, math::stddev(counts));

    // Class count: enough buckets to cover the observed maximum.
    double max_c = 0.0;
    for (double c : counts) max_c = std::max(max_c, c);
    classes = std::clamp(static_cast<int>(max_c) / opts.bucket_size + 1, 2, opts.max_buckets);

    std::vector<std::size_t> starts;
    for (std::size_t t = opts.lstm.seq_len; t < counts.size(); ++t)
      starts.push_back(t - opts.lstm.seq_len);

    auto params = lstm.parameters();
    for (int k = 0; k < classes; ++k)
      for (std::size_t j = 0; j < head_w.cols(); ++j) params.push_back(&head_w(k, j));
    for (int k = 0; k < classes; ++k) params.push_back(&head_b[k]);
    Adam adam(params.size(), opts.lstm.learning_rate);

    const std::size_t hidden = opts.lstm.hidden;
    std::vector<double> seq(opts.lstm.seq_len), p, dh(hidden), flat;
    std::vector<double> dz(static_cast<std::size_t>(classes));
    flat.reserve(params.size());
    for (int epoch = 0; epoch < opts.lstm.epochs; ++epoch) {
      std::shuffle(starts.begin(), starts.end(), rng.engine());
      for (std::size_t start : starts) {
        for (std::size_t i = 0; i < seq.size(); ++i) seq[i] = normalize(counts[start + i]);
        const auto h = lstm.forward(seq);
        logits(h, p);
        softmax(p);
        const int target = bucket_of(counts[start + opts.lstm.seq_len]);

        // Cross-entropy gradient dz_k = p_k - [k == target].
        for (int k = 0; k < classes; ++k) dz[k] = p[k] - (k == target ? 1.0 : 0.0);

        std::fill(dh.begin(), dh.end(), 0.0);
        for (int k = 0; k < classes; ++k) {
          const double* w = head_w.data() + static_cast<std::size_t>(k) * hidden;
          for (std::size_t j = 0; j < hidden; ++j) dh[j] += w[j] * dz[k];
        }
        flat.clear();
        LstmLayer::accumulate(flat, lstm.backward(dh));
        for (int k = 0; k < classes; ++k)
          for (std::size_t j = 0; j < hidden; ++j) flat.push_back(dz[k] * h[j]);
        for (int k = 0; k < classes; ++k) flat.push_back(dz[k]);
        adam.step(params, flat);
      }
    }
    trained = true;
  }

  int classify(std::span<const double> recent) const {
    if (!trained || recent.empty()) return 0;
    std::vector<double> seq = padded_tail(recent, opts.lstm.seq_len);
    for (double& v : seq) v = normalize(v);
    std::vector<double> z;
    logits(lstm.infer(seq), z);
    return static_cast<int>(std::max_element(z.begin(), z.end()) - z.begin());
  }
};

InvocationClassifier::InvocationClassifier(Options options)
    : impl_(std::make_unique<Impl>(options)) {}
InvocationClassifier::~InvocationClassifier() = default;

void InvocationClassifier::fit(std::span<const double> counts) { impl_->train(counts); }

int InvocationClassifier::predict_bucket(std::span<const double> recent) const {
  return impl_->classify(recent);
}

double InvocationClassifier::predict_next(std::span<const double> recent) const {
  const int bucket = impl_->classify(recent);
  // Upper bound of the bucket, then the +3% compensation of §VII-C2.
  const double upper = static_cast<double>((bucket + 1) * impl_->opts.bucket_size);
  return upper * (1.0 + impl_->opts.compensation);
}

const InvocationClassifier::Options& InvocationClassifier::options() const {
  return impl_->opts;
}

}  // namespace smiless::predictor
