#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <thread>

#include "common/rng.hpp"
#include "math/stats.hpp"
#include "predictor/classic.hpp"
#include "predictor/gbt.hpp"
#include "predictor/invocation_classifier.hpp"
#include "predictor/lstm.hpp"
#include "predictor/lstm_regressor.hpp"

namespace smiless::predictor {
namespace {

std::vector<double> sine_series(std::size_t n, double period, double offset = 2.0,
                                double amp = 1.0) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = offset + amp * std::sin(2.0 * std::numbers::pi * i / period);
  return out;
}

// --- LSTM layer mechanics ----------------------------------------------------

TEST(LstmLayer, ForwardShapeAndDeterminism) {
  Rng r1(1), r2(1);
  LstmLayer a(1, 8, r1), b(1, 8, r2);
  const std::vector<double> seq{0.1, 0.2, 0.3};
  const auto ha = a.forward(seq);
  const auto hb = b.forward(seq);
  ASSERT_EQ(ha.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(ha[i], hb[i]);
}

TEST(LstmLayer, HiddenStateBounded) {
  Rng rng(2);
  LstmLayer l(1, 16, rng);
  const std::vector<double> seq(50, 5.0);
  for (double h : l.forward(seq)) {
    EXPECT_LE(std::abs(h), 1.0);  // h = o * tanh(c), both bounded
  }
}

TEST(LstmLayer, BackwardMatchesNumericalGradient) {
  Rng rng(3);
  LstmLayer l(1, 4, rng);
  const std::vector<double> seq{0.3, -0.2, 0.7};
  // Loss = sum of final hidden units; dL/dh = ones.
  const auto h0 = l.forward(seq);
  const std::vector<double> dh(4, 1.0);
  const LstmGrads g = l.backward(dh);

  // Numerical check on a few weight entries.
  const double eps = 1e-6;
  auto loss = [&]() {
    const auto h = l.forward(seq);
    double s = 0.0;
    for (double v : h) s += v;
    return s;
  };
  for (std::size_t r = 0; r < 3; ++r) {
    double& w = l.wx(r, 0);
    const double orig = w;
    w = orig + eps;
    const double lp = loss();
    w = orig - eps;
    const double lm = loss();
    w = orig;
    EXPECT_NEAR((lp - lm) / (2 * eps), g.d_wx(r, 0), 1e-4);
  }
  for (std::size_t r = 0; r < 3; ++r) {
    double& b = l.bias()[r];
    const double orig = b;
    b = orig + eps;
    const double lp = loss();
    b = orig - eps;
    const double lm = loss();
    b = orig;
    EXPECT_NEAR((lp - lm) / (2 * eps), g.d_b[r], 1e-4);
  }
  (void)h0;
}

TEST(LstmLayer, ParameterCountConsistent) {
  Rng rng(4);
  LstmLayer l(2, 5, rng);
  EXPECT_EQ(l.parameters().size(), l.parameter_count());
  EXPECT_EQ(l.parameter_count(), 4u * 5u * (2u + 5u + 1u));
}

TEST(LstmLayer, InferMatchesForwardAndLeavesTheCacheAlone) {
  Rng r1(5), r2(5);
  LstmLayer a(2, 6, r1), b(2, 6, r2);
  const std::vector<double> xa{0.4, -0.1, 0.9, 0.3, -0.6, 0.2, 0.0, 1.1, -0.3, 0.5};
  const std::vector<double> xb{1.5, -2.0, 0.7, 0.7, -0.4, 0.1};
  const std::vector<double> dh{0.5, -0.25, 1.0, 0.0, -0.75, 0.3};

  // infer() is forward() bit for bit.
  const auto fa = a.forward(xa);
  const std::vector<double> ia = b.infer(xa);
  ASSERT_EQ(ia.size(), fa.size());
  for (std::size_t j = 0; j < fa.size(); ++j) EXPECT_EQ(ia[j], fa[j]);

  // An infer() between forward() and backward() leaves the BPTT cache alone.
  const LstmGrads ga = a.backward(dh);
  b.forward(xa);
  (void)b.infer(xb);
  const LstmGrads& gb = b.backward(dh);
  for (std::size_t r = 0; r < ga.d_wx.rows(); ++r) {
    for (std::size_t c = 0; c < ga.d_wx.cols(); ++c) EXPECT_EQ(gb.d_wx(r, c), ga.d_wx(r, c));
    for (std::size_t c = 0; c < ga.d_wh.cols(); ++c) EXPECT_EQ(gb.d_wh(r, c), ga.d_wh(r, c));
    EXPECT_EQ(gb.d_b[r], ga.d_b[r]);
  }
}

TEST(LstmLayer, RejectsMalformedSequencesAndEarlyBackward) {
  Rng rng(6);
  LstmLayer l(2, 4, rng);
  EXPECT_THROW(l.backward(std::vector<double>(4, 1.0)), CheckError);
  EXPECT_THROW(l.forward(std::vector<double>{}), CheckError);
  EXPECT_THROW(l.forward(std::vector<double>{0.1, 0.2, 0.3}), CheckError);  // not a multiple of 2
  EXPECT_THROW((void)l.infer(std::vector<double>{0.1}), CheckError);
  l.forward(std::vector<double>{0.1, 0.2});
  EXPECT_THROW(l.backward(std::vector<double>(3, 1.0)), CheckError);
}

TEST(Adam, DescendsQuadratic) {
  // Minimise (x-3)^2 via Adam updates.
  double x = 0.0;
  std::vector<double*> params{&x};
  Adam adam(1, 0.1);
  for (int i = 0; i < 500; ++i) {
    const std::vector<double> g{2.0 * (x - 3.0)};
    adam.step(params, g);
  }
  EXPECT_NEAR(x, 3.0, 0.05);
}

// --- regressors ---------------------------------------------------------------

TEST(LstmRegressor, LearnsPeriodicSeries) {
  const auto series = sine_series(400, 16.0);
  LstmOptions o;
  o.epochs = 10;
  LstmRegressor reg(o);
  reg.fit(series);
  // One-step predictions over a held-out continuation.
  double err = 0.0;
  int n = 0;
  for (std::size_t t = 340; t < 390; ++t) {
    const std::span<const double> hist(series.data(), t);
    err += std::abs(reg.predict_next(hist) - series[t]);
    ++n;
  }
  EXPECT_LT(err / n, 0.25);  // amplitude is 1.0 around an offset of 2
}

TEST(LstmRegressor, HandlesTooShortHistory) {
  LstmRegressor reg;
  const std::vector<double> tiny{1.0, 2.0};
  reg.fit(tiny);  // not enough to train
  EXPECT_DOUBLE_EQ(reg.predict_next(tiny), 2.0);  // falls back to persistence
  EXPECT_DOUBLE_EQ(reg.predict_next({}), 0.0);
}

TEST(LstmRegressor, AsymmetricLossSuppressesOverestimation) {
  Rng rng(9);
  std::vector<double> noisy(500);
  for (auto& v : noisy) v = std::max(0.1, rng.normal(2.0, 0.5));
  LstmOptions sym;
  sym.epochs = 6;
  LstmOptions asym = sym;
  asym.over_weight = 8.0;  // punish predictions above the truth
  LstmRegressor a(sym), b(asym);
  a.fit(noisy);
  b.fit(noisy);
  std::vector<double> truth, pa, pb;
  for (std::size_t t = 450; t < 495; ++t) {
    const std::span<const double> hist(noisy.data(), t);
    truth.push_back(noisy[t]);
    pa.push_back(a.predict_next(hist));
    pb.push_back(b.predict_next(hist));
  }
  EXPECT_LE(math::overestimation_rate(truth, pb), math::overestimation_rate(truth, pa));
}

TEST(DualLstmRegressor, AuxiliarySeriesHelpsCorrelatedTarget) {
  // Target alternates with a signal fully determined by the auxiliary
  // channel two steps earlier.
  Rng rng(10);
  std::vector<double> aux(500), target(500);
  for (std::size_t i = 0; i < aux.size(); ++i) aux[i] = (i / 8) % 2 == 0 ? 0.0 : 4.0;
  for (std::size_t i = 0; i < target.size(); ++i)
    target[i] = 1.0 + (i >= 2 ? aux[i - 2] : 0.0) + rng.normal(0.0, 0.05);

  LstmOptions o;
  o.epochs = 10;
  DualLstmRegressor dual(o);
  dual.fit(target, aux);
  double err = 0.0;
  int n = 0;
  for (std::size_t t = 450; t < 495; ++t) {
    const std::span<const double> th(target.data(), t);
    const std::span<const double> ah(aux.data(), t);
    err += std::abs(dual.predict_next(th, ah) - target[t]);
    ++n;
  }
  EXPECT_LT(err / n, 1.0);
}

TEST(DualLstmRegressor, EmptyHistoryIsSafe) {
  DualLstmRegressor dual;
  EXPECT_DOUBLE_EQ(dual.predict_next({}, {}), 0.0);
}

// --- classifier ----------------------------------------------------------------

TEST(InvocationClassifier, PredictsUpperBoundOfBucket) {
  // Alternating load 1 / 5 with period 8 — trivially learnable.
  std::vector<double> counts(400);
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] = (i / 8) % 2 == 0 ? 1.0 : 5.0;
  InvocationClassifier::Options o;
  o.bucket_size = 2;
  o.lstm.epochs = 10;
  InvocationClassifier cls(o);
  cls.fit(counts);

  int correct = 0, trials = 0;
  for (std::size_t t = 350; t < 395; ++t) {
    const std::span<const double> hist(counts.data(), t);
    const int truth_bucket = static_cast<int>(counts[t]) / o.bucket_size;
    if (cls.predict_bucket(hist) == truth_bucket) ++correct;
    ++trials;
  }
  EXPECT_GT(correct, trials * 7 / 10);
}

TEST(InvocationClassifier, UpperBoundRarelyUnderestimates) {
  Rng rng(11);
  std::vector<double> counts(500);
  for (auto& c : counts) c = std::max(0, rng.poisson(3.0));
  InvocationClassifier::Options o;
  o.bucket_size = 2;
  o.lstm.epochs = 8;
  InvocationClassifier cls(o);
  cls.fit(counts);
  std::vector<double> truth, pred;
  for (std::size_t t = 400; t < 495; ++t) {
    const std::span<const double> hist(counts.data(), t);
    truth.push_back(counts[t]);
    pred.push_back(cls.predict_next(hist));
  }
  // The bucket-upper-bound mapping keeps underestimation low (paper: ~3%).
  EXPECT_LT(math::underestimation_rate(truth, pred), 0.25);
}

TEST(InvocationClassifier, CompensationInflatesPrediction) {
  InvocationClassifier::Options o;
  o.compensation = 0.5;
  InvocationClassifier cls(o);
  const std::vector<double> flat(300, 1.0);
  cls.fit(flat);
  const double p = cls.predict_next(flat);
  // bucket 0 upper bound = 2, +50% = 3.
  EXPECT_NEAR(p, 3.0, 1e-9);
}

TEST(LstmPredictors, SharedConstPredictorServesManyThreads) {
  // predict_next() is const and writes no shared state, so threads may share
  // one trained predictor; each must see exactly the serial predictions.
  Rng rng(31);
  std::vector<double> counts(160), gaps(160);
  for (std::size_t t = 0; t < counts.size(); ++t) {
    counts[t] = static_cast<double>(rng.poisson(3.0 + 2.0 * std::sin(0.3 * t)));
    gaps[t] = rng.exponential(2.0);
  }
  LstmOptions o;
  o.hidden = 8;
  o.seq_len = 8;
  o.epochs = 2;
  InvocationClassifier::Options co;
  co.lstm = o;
  InvocationClassifier cls(co);
  LstmRegressor single(o);
  DualLstmRegressor dual(o);
  cls.fit(std::span<const double>(counts).subspan(0, 120));
  single.fit(std::span<const double>(gaps).subspan(0, 120));
  dual.fit(std::span<const double>(gaps).subspan(0, 120),
           std::span<const double>(counts).subspan(0, 120));

  auto predictions = [&](const InvocationClassifier& c, const LstmRegressor& s,
                         const DualLstmRegressor& d) {
    std::vector<double> out;
    for (std::size_t t = 120; t <= counts.size(); ++t) {
      const std::span<const double> cs(counts.data(), t), gs(gaps.data(), t);
      out.push_back(c.predict_next(cs));
      out.push_back(s.predict_next(gs));
      out.push_back(d.predict_next(gs, cs));
    }
    return out;
  };
  const std::vector<double> serial = predictions(cls, single, dual);

  constexpr int kThreads = 4;
  std::vector<std::vector<double>> got(kThreads);
  {
    std::vector<std::jthread> threads;
    for (int w = 0; w < kThreads; ++w)
      threads.emplace_back([&, w] {
        for (int rep = 0; rep < 3; ++rep) got[w] = predictions(cls, single, dual);
      });
  }
  for (const auto& g : got) EXPECT_EQ(g, serial);
}

// --- classic baselines -----------------------------------------------------------

TEST(Arima, PredictsLinearTrend) {
  std::vector<double> xs(100);
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = 2.0 * i + 5.0;
  ArimaPredictor arima(2, 1);
  arima.fit(xs);
  EXPECT_NEAR(arima.predict_next(xs), 2.0 * 100 + 5.0, 0.5);
}

TEST(Arima, ConstantSeriesFallsBackGracefully) {
  const std::vector<double> xs(50, 3.0);
  ArimaPredictor arima(3, 1);
  arima.fit(xs);  // differenced series is all-zero -> rank deficient
  EXPECT_NEAR(arima.predict_next(xs), 3.0, 1e-9);
}

TEST(Fip, TracksPeriodicSignal) {
  const auto xs = sine_series(256, 32.0);
  FipPredictor fip(4);
  fip.fit(xs);
  double err = 0.0;
  int n = 0;
  for (std::size_t t = 128; t < 250; ++t) {
    const std::span<const double> hist(xs.data(), t);
    err += std::abs(fip.predict_next(hist) - xs[t]);
    ++n;
  }
  EXPECT_LT(err / n, 0.6);
}

TEST(Gbt, LearnsLagDependence) {
  // x_t = x_{t-1} * 0.5 + 1 with jitter.
  Rng rng(12);
  std::vector<double> xs{4.0};
  for (int i = 1; i < 400; ++i)
    xs.push_back(0.5 * xs.back() + 1.0 + rng.normal(0.0, 0.02));
  GbtPredictor gbt;
  gbt.fit(xs);
  const double pred = gbt.predict_next(xs);
  const double expected = 0.5 * xs.back() + 1.0;
  EXPECT_NEAR(pred, expected, 0.25);
}

TEST(Gbt, ShortSeriesFallsBackToPersistence) {
  GbtPredictor gbt;
  const std::vector<double> xs{1.0, 2.0, 3.0};
  gbt.fit(xs);
  EXPECT_DOUBLE_EQ(gbt.predict_next(xs), 3.0);
}

TEST(Naive, ReturnsLastValue) {
  NaivePredictor p;
  const std::vector<double> xs{1.0, 9.0};
  EXPECT_DOUBLE_EQ(p.predict_next(xs), 9.0);
}

TEST(MovingAverage, AveragesHorizon) {
  MovingAveragePredictor p(4);
  const std::vector<double> xs{100.0, 2.0, 2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(p.predict_next(xs), 2.0);
}

// --- parameterised sweeps ---------------------------------------------------

class LstmHiddenSweep : public ::testing::TestWithParam<int> {};

TEST_P(LstmHiddenSweep, LearnsSineAtEveryWidth) {
  const auto series = sine_series(300, 12.0);
  LstmOptions o;
  o.hidden = static_cast<std::size_t>(GetParam());
  o.seq_len = 12;
  o.epochs = 10;
  LstmRegressor reg(o);
  reg.fit(series);
  double err = 0.0;
  int n = 0;
  for (std::size_t t = 260; t < 295; ++t) {
    err += std::abs(reg.predict_next(std::span<const double>(series.data(), t)) - series[t]);
    ++n;
  }
  EXPECT_LT(err / n, 0.35) << "hidden=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Widths, LstmHiddenSweep, ::testing::Values(4, 8, 16, 24));

class GbtDepthSweep : public ::testing::TestWithParam<int> {};

TEST_P(GbtDepthSweep, DeeperTreesNeverBreakLagLearning) {
  Rng rng(31);
  std::vector<double> xs{2.0};
  for (int i = 1; i < 300; ++i) xs.push_back(0.7 * xs.back() + 0.5 + rng.normal(0.0, 0.02));
  GbtPredictor::Options o;
  o.max_depth = GetParam();
  GbtPredictor gbt(o);
  gbt.fit(xs);
  const double expected = 0.7 * xs.back() + 0.5;
  EXPECT_NEAR(gbt.predict_next(xs), expected, 0.3) << "depth=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Depths, GbtDepthSweep, ::testing::Values(1, 2, 3, 5));

class ArimaOrderSweep : public ::testing::TestWithParam<int> {};

TEST_P(ArimaOrderSweep, TrendPredictionStableAcrossOrders) {
  std::vector<double> xs(120);
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = 1.5 * static_cast<double>(i) + 4.0;
  ArimaPredictor arima(GetParam(), 1);
  arima.fit(xs);
  EXPECT_NEAR(arima.predict_next(xs), 1.5 * 120 + 4.0, 1.0) << "p=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Orders, ArimaOrderSweep, ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace smiless::predictor
