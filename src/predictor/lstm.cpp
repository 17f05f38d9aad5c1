#include "predictor/lstm.hpp"

#include <algorithm>
#include <cmath>

namespace smiless::predictor {

namespace {
double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }
}  // namespace

LstmLayer::LstmLayer(std::size_t input_dim, std::size_t hidden_dim, Rng& rng)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      wx_(4 * hidden_dim * input_dim, 0.0),
      wh_(4 * hidden_dim * hidden_dim, 0.0),
      b_(4 * hidden_dim, 0.0),
      grads_{math::Matrix(4 * hidden_dim, input_dim), math::Matrix(4 * hidden_dim, hidden_dim),
             std::vector<double>(4 * hidden_dim, 0.0)},
      dz_(4 * hidden_dim),
      dh_(hidden_dim),
      dc_(hidden_dim),
      dh_prev_(hidden_dim),
      dc_prev_(hidden_dim) {
  SMILESS_CHECK(input_dim >= 1 && hidden_dim >= 1);
  // Xavier-ish init; forget-gate bias starts positive so early training
  // retains state.
  const double sx = 1.0 / std::sqrt(static_cast<double>(input_dim));
  const double sh = 1.0 / std::sqrt(static_cast<double>(hidden_dim));
  for (std::size_t r = 0; r < 4 * hidden_dim; ++r) {
    for (std::size_t c = 0; c < input_dim; ++c) wx(r, c) = rng.uniform(-sx, sx);
    for (std::size_t c = 0; c < hidden_dim; ++c) wh(r, c) = rng.uniform(-sh, sh);
  }
  for (std::size_t h = hidden_dim; h < 2 * hidden_dim; ++h) b_[h] = 1.0;
}

double& LstmLayer::wx(std::size_t r, std::size_t c) {
  SMILESS_CHECK(r < 4 * hidden_dim_ && c < input_dim_);
  return wx_[c * 4 * hidden_dim_ + r];
}

double& LstmLayer::wh(std::size_t r, std::size_t c) {
  SMILESS_CHECK(r < 4 * hidden_dim_ && c < hidden_dim_);
  return wh_[c * 4 * hidden_dim_ + r];
}

std::size_t LstmLayer::check_sequence(std::span<const double> sequence) const {
  SMILESS_CHECK(!sequence.empty());
  SMILESS_CHECK(sequence.size() % input_dim_ == 0);
  return sequence.size() / input_dim_;
}

void LstmLayer::step(const double* x, const double* h_prev, const double* c_prev, double* gates,
                     double* c, double* tanh_c, double* h) const {
  const std::size_t h_dim = hidden_dim_;
  const std::size_t rows = 4 * h_dim;
  // Row r accumulates b[r], then wx(r, 0..D) * x, then wh(r, 0..H) * h_prev,
  // in that order: the loops run down columns, but no row's sum is
  // reassociated.
  std::copy(b_.begin(), b_.end(), gates);
  for (std::size_t k = 0; k < input_dim_; ++k) {
    const double* col = wx_.data() + k * rows;
    const double xk = x[k];
    for (std::size_t r = 0; r < rows; ++r) gates[r] += col[r] * xk;
  }
  for (std::size_t k = 0; k < h_dim; ++k) {
    const double* col = wh_.data() + k * rows;
    const double hk = h_prev[k];
    for (std::size_t r = 0; r < rows; ++r) gates[r] += col[r] * hk;
  }
  for (std::size_t j = 0; j < h_dim; ++j) {
    const double i = sigmoid(gates[j]);
    const double f = sigmoid(gates[h_dim + j]);
    const double g = std::tanh(gates[2 * h_dim + j]);
    const double o = sigmoid(gates[3 * h_dim + j]);
    gates[j] = i;
    gates[h_dim + j] = f;
    gates[2 * h_dim + j] = g;
    gates[3 * h_dim + j] = o;
    c[j] = f * c_prev[j] + i * g;
    tanh_c[j] = std::tanh(c[j]);
    h[j] = o * tanh_c[j];
  }
}

std::span<const double> LstmLayer::forward(std::span<const double> sequence) {
  const std::size_t steps = check_sequence(sequence);
  const std::size_t h_dim = hidden_dim_;
  steps_ = steps;
  x_.assign(sequence.begin(), sequence.end());
  gates_.resize(steps * 4 * h_dim);
  tanh_c_.resize(steps * h_dim);
  h_.resize((steps + 1) * h_dim);
  c_.resize((steps + 1) * h_dim);
  std::fill_n(h_.begin(), h_dim, 0.0);
  std::fill_n(c_.begin(), h_dim, 0.0);
  for (std::size_t t = 0; t < steps; ++t) {
    step(x_.data() + t * input_dim_, h_.data() + t * h_dim, c_.data() + t * h_dim,
         gates_.data() + t * 4 * h_dim, c_.data() + (t + 1) * h_dim,
         tanh_c_.data() + t * h_dim, h_.data() + (t + 1) * h_dim);
  }
  return {h_.data() + steps * h_dim, h_dim};
}

std::vector<double> LstmLayer::infer(std::span<const double> sequence) const {
  const std::size_t steps = check_sequence(sequence);
  const std::size_t h_dim = hidden_dim_;
  std::vector<double> h(h_dim, 0.0);
  std::vector<double> scratch(6 * h_dim, 0.0);  // gates (4H), c, tanh(c)
  double* gates = scratch.data();
  double* c = gates + 4 * h_dim;
  double* tanh_c = c + h_dim;
  for (std::size_t t = 0; t < steps; ++t)
    step(sequence.data() + t * input_dim_, h.data(), c, gates, c, tanh_c, h.data());
  return h;
}

const LstmGrads& LstmLayer::backward(std::span<const double> d_h_final) {
  SMILESS_CHECK_MSG(steps_ > 0, "backward() before forward()");
  SMILESS_CHECK(d_h_final.size() == hidden_dim_);
  const std::size_t h_dim = hidden_dim_;
  const std::size_t d_dim = input_dim_;
  const std::size_t rows = 4 * h_dim;

  double* d_wx = grads_.d_wx.data();
  double* d_wh = grads_.d_wh.data();
  double* d_b = grads_.d_b.data();
  std::fill_n(d_wx, rows * d_dim, 0.0);
  std::fill_n(d_wh, rows * h_dim, 0.0);
  std::fill_n(d_b, rows, 0.0);
  std::copy(d_h_final.begin(), d_h_final.end(), dh_.begin());
  std::fill(dc_.begin(), dc_.end(), 0.0);
  double* dz = dz_.data();

  for (std::size_t t = steps_; t-- > 0;) {
    const double* i = gates_.data() + t * rows;
    const double* f = i + h_dim;
    const double* g = f + h_dim;
    const double* o = g + h_dim;
    const double* tanh_c = tanh_c_.data() + t * h_dim;
    const double* x = x_.data() + t * d_dim;
    const double* h_prev = h_.data() + t * h_dim;
    const double* c_prev = c_.data() + t * h_dim;
    const double* dh = dh_.data();
    const double* dc = dc_.data();
    double* dc_prev = dc_prev_.data();

    for (std::size_t j = 0; j < h_dim; ++j) {
      const double d_o = dh[j] * tanh_c[j];
      const double dc_total = dc[j] + dh[j] * o[j] * (1.0 - tanh_c[j] * tanh_c[j]);
      const double d_i = dc_total * g[j];
      const double d_f = dc_total * c_prev[j];
      const double d_g = dc_total * i[j];
      dz[j] = d_i * i[j] * (1.0 - i[j]);
      dz[h_dim + j] = d_f * f[j] * (1.0 - f[j]);
      dz[2 * h_dim + j] = d_g * (1.0 - g[j] * g[j]);
      dz[3 * h_dim + j] = d_o * o[j] * (1.0 - o[j]);
      dc_prev[j] = dc_total * f[j];
    }

    for (std::size_t r = 0; r < rows; ++r) {
      const double dzr = dz[r];
      if (dzr == 0.0) continue;
      double* wx_row = d_wx + r * d_dim;
      double* wh_row = d_wh + r * h_dim;
      for (std::size_t k = 0; k < d_dim; ++k) wx_row[k] += dzr * x[k];
      for (std::size_t k = 0; k < h_dim; ++k) wh_row[k] += dzr * h_prev[k];
      d_b[r] += dzr;
    }

    double* dh_prev = dh_prev_.data();
    std::fill_n(dh_prev, h_dim, 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
      const double dzr = dz[r];
      if (dzr == 0.0) continue;
      for (std::size_t k = 0; k < h_dim; ++k) dh_prev[k] += wh_[k * rows + r] * dzr;
    }
    std::swap(dh_, dh_prev_);
    std::swap(dc_, dc_prev_);
  }
  return grads_;
}

std::vector<double*> LstmLayer::parameters() {
  std::vector<double*> out;
  out.reserve(parameter_count());
  for (std::size_t r = 0; r < 4 * hidden_dim_; ++r)
    for (std::size_t c = 0; c < input_dim_; ++c) out.push_back(&wx(r, c));
  for (std::size_t r = 0; r < 4 * hidden_dim_; ++r)
    for (std::size_t c = 0; c < hidden_dim_; ++c) out.push_back(&wh(r, c));
  for (auto& v : b_) out.push_back(&v);
  return out;
}

void LstmLayer::accumulate(std::vector<double>& flat, const LstmGrads& grads) {
  const auto append = [&flat](const math::Matrix& m) {
    flat.insert(flat.end(), m.data(), m.data() + m.rows() * m.cols());
  };
  append(grads.d_wx);
  append(grads.d_wh);
  flat.insert(flat.end(), grads.d_b.begin(), grads.d_b.end());
}

std::size_t LstmLayer::parameter_count() const {
  return 4 * hidden_dim_ * (input_dim_ + hidden_dim_ + 1);
}

std::vector<double> padded_tail(std::span<const double> series, std::size_t len) {
  SMILESS_CHECK(!series.empty());
  std::vector<double> tail(len, series.front());
  const std::size_t n = std::min(len, series.size());
  std::copy(series.end() - static_cast<std::ptrdiff_t>(n), series.end(),
            tail.end() - static_cast<std::ptrdiff_t>(n));
  return tail;
}

Adam::Adam(std::size_t n, double lr, double beta1, double beta2, double eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps), m_(n, 0.0), v_(n, 0.0) {}

void Adam::step(std::vector<double*>& params, const std::vector<double>& grads) {
  SMILESS_CHECK(params.size() == grads.size() && params.size() == m_.size());
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t i = 0; i < params.size(); ++i) {
    m_[i] = beta1_ * m_[i] + (1.0 - beta1_) * grads[i];
    v_[i] = beta2_ * v_[i] + (1.0 - beta2_) * grads[i] * grads[i];
    const double mhat = m_[i] / bc1;
    const double vhat = v_[i] / bc2;
    *params[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
  }
}

}  // namespace smiless::predictor
