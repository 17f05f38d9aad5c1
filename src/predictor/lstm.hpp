#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "math/matrix.hpp"

namespace smiless::predictor {

/// Gradients of one LstmLayer, in the order of parameters(): d_wx (4H x D)
/// and d_wh (4H x H) row-major, then d_b.
struct LstmGrads {
  math::Matrix d_wx, d_wh;
  std::vector<double> d_b;
};

/// A single LSTM layer implemented from scratch: forward over a sequence,
/// full backpropagation-through-time, parameters updated externally (Adam).
/// Gate layout in the stacked weight matrices: rows [0,H) input gate,
/// [H,2H) forget, [2H,3H) cell candidate, [3H,4H) output.
///
/// Sequences are flat and step-major: T steps of input_dim values each.
/// The weights are stored column-major, so the gate pre-activations are
/// accumulated down contiguous columns and the row loop vectorises. Each row
/// still adds its bias, then its wx terms, then its wh terms, each in column
/// order, which keeps the results bit-identical to a row-by-row dot product
/// (DESIGN.md §17). forward() and backward() reuse member buffers, so
/// training allocates nothing per sample.
class LstmLayer {
 public:
  LstmLayer(std::size_t input_dim, std::size_t hidden_dim, Rng& rng);

  std::size_t input_dim() const { return input_dim_; }
  std::size_t hidden_dim() const { return hidden_dim_; }

  /// Run the layer over `sequence`. Returns the final hidden state (valid
  /// until the next forward()) and caches activations for backward().
  std::span<const double> forward(std::span<const double> sequence);

  /// The same pass as forward(), bit for bit, writing no member state: safe
  /// to call concurrently on a shared layer, and it leaves the cache of the
  /// last forward() intact for backward().
  std::vector<double> infer(std::span<const double> sequence) const;

  /// BPTT given the loss gradient w.r.t. the final hidden state of the last
  /// forward(). The gradients live in a buffer the layer reuses: they stay
  /// valid until the next backward().
  const LstmGrads& backward(std::span<const double> d_h_final);

  /// Flattened parameter access for the optimizer: (wx, wh, b), each matrix
  /// in row-major order.
  std::vector<double*> parameters();
  static void accumulate(std::vector<double>& flat, const LstmGrads& grads);
  std::size_t parameter_count() const;

  /// Element (r, c) of the stacked input / recurrent weights.
  double& wx(std::size_t r, std::size_t c);
  double& wh(std::size_t r, std::size_t c);
  std::vector<double>& bias() { return b_; }

 private:
  std::size_t check_sequence(std::span<const double> sequence) const;
  /// One time step. Writes the activated gates (i, f, g, o) to `gates`
  /// (4H), then c, tanh(c) and h. `h` may alias `h_prev` and `c` may alias
  /// `c_prev`.
  void step(const double* x, const double* h_prev, const double* c_prev, double* gates,
            double* c, double* tanh_c, double* h) const;

  std::size_t input_dim_;
  std::size_t hidden_dim_;
  std::vector<double> wx_;  // 4H x D column-major: (r, c) at c * 4H + r
  std::vector<double> wh_;  // 4H x H column-major
  std::vector<double> b_;

  // Forward cache, step-major. h_ and c_ hold T + 1 rows: row 0 is the zero
  // initial state, row t + 1 the state after step t.
  std::size_t steps_ = 0;
  std::vector<double> x_;       // T x D
  std::vector<double> gates_;   // T x 4H
  std::vector<double> tanh_c_;  // T x H
  std::vector<double> h_, c_;   // (T + 1) x H

  // Backward buffers.
  LstmGrads grads_;
  std::vector<double> dz_, dh_, dc_, dh_prev_, dc_prev_;
};

/// The last `len` values of a non-empty `series`, left-padded with its first
/// value when it is shorter: the input window of every LSTM predictor.
std::vector<double> padded_tail(std::span<const double> series, std::size_t len);

/// Adam optimizer over a flat parameter vector.
class Adam {
 public:
  Adam(std::size_t n, double lr = 1e-2, double beta1 = 0.9, double beta2 = 0.999,
       double eps = 1e-8);

  /// Apply one update: params[i] -= step computed from grads[i].
  void step(std::vector<double*>& params, const std::vector<double>& grads);

 private:
  double lr_, beta1_, beta2_, eps_;
  long t_ = 0;
  std::vector<double> m_, v_;
};

}  // namespace smiless::predictor
