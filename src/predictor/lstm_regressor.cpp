#include "predictor/lstm_regressor.hpp"

#include <algorithm>
#include <cmath>

#include "math/stats.hpp"

namespace smiless::predictor {

namespace {

struct Norm {
  double mean = 0.0;
  double std = 1.0;
  void fit(std::span<const double> xs) {
    mean = math::mean(xs);
    std = math::stddev(xs);
    if (std < 1e-9) std = 1.0;
  }
  double fwd(double x) const { return (x - mean) / std; }
  double inv(double z) const { return z * std + mean; }
};

/// Build (window, next-value) training pairs from a series.
void make_pairs(std::span<const double> s, std::size_t len,
                std::vector<std::size_t>& starts) {
  starts.clear();
  if (s.size() <= len) return;
  for (std::size_t t = len; t < s.size(); ++t) starts.push_back(t - len);
}

/// Normalise s[start, start + seq.size()) into `seq`.
void fill_window(std::span<const double> s, std::size_t start, const Norm& norm,
                 std::vector<double>& seq) {
  for (std::size_t i = 0; i < seq.size(); ++i) seq[i] = norm.fwd(s[start + i]);
}

/// The normalised input window of a prediction from `recent`.
std::vector<double> predict_window(std::span<const double> recent, std::size_t len,
                                   const Norm& norm) {
  std::vector<double> seq = padded_tail(recent, len);
  for (double& v : seq) v = norm.fwd(v);
  return seq;
}

}  // namespace

// ---------------------------------------------------------------------------
// Single-input regressor
// ---------------------------------------------------------------------------

struct LstmRegressor::Impl {
  LstmOptions opts;
  Rng rng;
  LstmLayer lstm;
  std::vector<double> head_w;
  double head_b = 0.0;
  Norm norm;
  bool trained = false;

  explicit Impl(const LstmOptions& o)
      : opts(o), rng(o.seed), lstm(1, o.hidden, rng), head_w(o.hidden, 0.0) {
    for (auto& w : head_w) w = rng.uniform(-0.3, 0.3);
  }

  double head(std::span<const double> h) const {
    double y = head_b;
    for (std::size_t j = 0; j < head_w.size(); ++j) y += head_w[j] * h[j];
    return y;
  }

  void train(std::span<const double> series) {
    norm.fit(series);
    std::vector<std::size_t> starts;
    make_pairs(series, opts.seq_len, starts);
    if (starts.empty()) {
      trained = false;
      return;
    }

    auto params = lstm.parameters();
    for (auto& w : head_w) params.push_back(&w);
    params.push_back(&head_b);
    Adam adam(params.size(), opts.learning_rate);

    std::vector<double> seq(opts.seq_len), dh(opts.hidden), flat;
    flat.reserve(params.size());
    for (int epoch = 0; epoch < opts.epochs; ++epoch) {
      std::shuffle(starts.begin(), starts.end(), rng.engine());
      for (std::size_t start : starts) {
        fill_window(series, start, norm, seq);
        const auto h = lstm.forward(seq);
        const double y = head(h);
        const double target = norm.fwd(series[start + opts.seq_len]);
        const double err = y - target;
        const double w = err > 0.0 ? opts.over_weight : opts.under_weight;
        const double dy = 2.0 * w * err;

        for (std::size_t j = 0; j < opts.hidden; ++j) dh[j] = dy * head_w[j];
        flat.clear();
        LstmLayer::accumulate(flat, lstm.backward(dh));
        for (std::size_t j = 0; j < opts.hidden; ++j) flat.push_back(dy * h[j]);
        flat.push_back(dy);
        adam.step(params, flat);
      }
    }
    trained = true;
  }
};

LstmRegressor::LstmRegressor(LstmOptions options) : impl_(std::make_unique<Impl>(options)) {}
LstmRegressor::~LstmRegressor() = default;

void LstmRegressor::fit(std::span<const double> series) { impl_->train(series); }

double LstmRegressor::predict_next(std::span<const double> recent) const {
  if (!impl_->trained || recent.empty()) return recent.empty() ? 0.0 : recent.back();
  const auto seq = predict_window(recent, impl_->opts.seq_len, impl_->norm);
  const double z = impl_->head(impl_->lstm.infer(seq));
  return std::max(0.0, impl_->norm.inv(z));
}

// ---------------------------------------------------------------------------
// Dual-input regressor
// ---------------------------------------------------------------------------

struct DualLstmRegressor::Impl {
  LstmOptions opts;
  Rng rng;
  LstmLayer lstm_a;  // primary (inter-arrival) branch
  LstmLayer lstm_b;  // auxiliary (invocation count) branch
  std::vector<double> head_w;  // over tanh(concat(h_a, h_b))
  double head_b = 0.0;
  Norm norm_a, norm_b;
  bool trained = false;

  explicit Impl(const LstmOptions& o)
      : opts(o),
        rng(o.seed),
        lstm_a(1, o.hidden, rng),
        lstm_b(1, o.hidden, rng),
        head_w(2 * o.hidden, 0.0) {
    for (auto& w : head_w) w = rng.uniform(-0.3, 0.3);
  }

  /// Merge the branches' final hidden states through tanh into `merged`
  /// and apply the linear head.
  double head(std::span<const double> ha, std::span<const double> hb,
              std::vector<double>& merged) const {
    merged.resize(2 * opts.hidden);
    for (std::size_t j = 0; j < opts.hidden; ++j) {
      merged[j] = std::tanh(ha[j]);
      merged[opts.hidden + j] = std::tanh(hb[j]);
    }
    double y = head_b;
    for (std::size_t j = 0; j < merged.size(); ++j) y += head_w[j] * merged[j];
    return y;
  }

  void train(std::span<const double> a, std::span<const double> b) {
    SMILESS_CHECK(a.size() == b.size());
    norm_a.fit(a);
    norm_b.fit(b);
    std::vector<std::size_t> starts;
    make_pairs(a, opts.seq_len, starts);
    if (starts.empty()) {
      trained = false;
      return;
    }

    auto params = lstm_a.parameters();
    for (double* p : lstm_b.parameters()) params.push_back(p);
    for (auto& w : head_w) params.push_back(&w);
    params.push_back(&head_b);
    Adam adam(params.size(), opts.learning_rate);

    std::vector<double> sa(opts.seq_len), sb(opts.seq_len), merged;
    std::vector<double> dha(opts.hidden), dhb(opts.hidden), flat;
    flat.reserve(params.size());
    for (int epoch = 0; epoch < opts.epochs; ++epoch) {
      std::shuffle(starts.begin(), starts.end(), rng.engine());
      for (std::size_t start : starts) {
        fill_window(a, start, norm_a, sa);
        fill_window(b, start, norm_b, sb);
        const double y = head(lstm_a.forward(sa), lstm_b.forward(sb), merged);
        const double target = norm_a.fwd(a[start + opts.seq_len]);
        const double err = y - target;
        const double w = err > 0.0 ? opts.over_weight : opts.under_weight;
        const double dy = 2.0 * w * err;

        // Back through the head and tanh merge into each branch.
        for (std::size_t j = 0; j < opts.hidden; ++j) {
          dha[j] = dy * head_w[j] * (1.0 - merged[j] * merged[j]);
          dhb[j] = dy * head_w[opts.hidden + j] *
                   (1.0 - merged[opts.hidden + j] * merged[opts.hidden + j]);
        }
        flat.clear();
        LstmLayer::accumulate(flat, lstm_a.backward(dha));
        LstmLayer::accumulate(flat, lstm_b.backward(dhb));
        for (std::size_t j = 0; j < merged.size(); ++j) flat.push_back(dy * merged[j]);
        flat.push_back(dy);
        adam.step(params, flat);
      }
    }
    trained = true;
  }
};

DualLstmRegressor::DualLstmRegressor(LstmOptions options)
    : impl_(std::make_unique<Impl>(options)) {}
DualLstmRegressor::~DualLstmRegressor() = default;

void DualLstmRegressor::fit(std::span<const double> primary, std::span<const double> auxiliary) {
  impl_->train(primary, auxiliary);
}

double DualLstmRegressor::predict_next(std::span<const double> recent_primary,
                                       std::span<const double> recent_auxiliary) const {
  if (!impl_->trained || recent_primary.empty())
    return recent_primary.empty() ? 0.0 : recent_primary.back();
  const std::size_t len = impl_->opts.seq_len;
  const auto sa = predict_window(recent_primary, len, impl_->norm_a);
  const auto sb = predict_window(recent_auxiliary.empty() ? recent_primary : recent_auxiliary,
                                 len, impl_->norm_b);
  std::vector<double> merged;
  const double z = impl_->head(impl_->lstm_a.infer(sa), impl_->lstm_b.infer(sb), merged);
  return std::max(0.0, impl_->norm_a.inv(z));
}

}  // namespace smiless::predictor
