// Bit-identity golden for the LSTM-on path: the LstmLayer kernel, the three
// LSTM predictors, and one SMIless cell with the Online Predictor enabled.
// Every value is printed as a hexfloat, so a change in any bit of any output
// shows up as a line diff against tests/golden/lstm_predictor.txt.
//
// The golden file holds one section per test, each opened by a line
// "== <section>". On a mismatch the test writes what it computed to
// lstm_golden_<section>.actual in the working directory.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "apps/catalog.hpp"
#include "baselines/experiment.hpp"
#include "cluster/cluster.hpp"
#include "core/smiless_policy.hpp"
#include "predictor/invocation_classifier.hpp"
#include "predictor/lstm.hpp"
#include "predictor/lstm_regressor.hpp"
#include "sim/engine.hpp"
#include "workload/trace.hpp"

namespace smiless {
namespace {

std::string golden_section(const std::string& name) {
  std::ifstream in(std::string(SMILESS_GOLDEN_DIR) + "/lstm_predictor.txt");
  std::string line, out;
  bool inside = false;
  while (std::getline(in, line)) {
    if (line.rfind("== ", 0) == 0) {
      if (inside) break;
      inside = line == "== " + name;
      continue;
    }
    if (inside) out += line + "\n";
  }
  return out;
}

void expect_golden(const std::string& name, const std::string& actual) {
  const std::string expected = golden_section(name);
  if (expected == actual) return;
  std::ofstream("lstm_golden_" + name + ".actual") << actual;
  std::istringstream e(expected), a(actual);
  std::string le, la;
  int line = 0;
  while (true) {
    const bool more_e = static_cast<bool>(std::getline(e, le));
    const bool more_a = static_cast<bool>(std::getline(a, la));
    ++line;
    if (!more_e && !more_a) break;
    if (!more_e || !more_a || le != la) {
      ADD_FAILURE() << "section '" << name << "' diverges from the golden at line " << line
                    << "\n  golden: " << (more_e ? le : "<end>")
                    << "\n  actual: " << (more_a ? la : "<end>");
      return;
    }
  }
  ADD_FAILURE() << "section '" << name << "' diverges from the golden";
}

/// "label v0 v1 ..." with every value as a hexfloat.
void row(std::ostream& os, const std::string& label, std::span<const double> values) {
  os << label;
  for (double v : values) os << ' ' << std::hexfloat << v;
  os << '\n';
}

/// `steps` inputs of `dim` values each, step-major.
std::vector<double> make_sequence(std::size_t steps, std::size_t dim) {
  std::vector<double> seq(steps * dim);
  for (std::size_t t = 0; t < steps; ++t)
    for (std::size_t d = 0; d < dim; ++d)
      seq[t * dim + d] = std::sin(0.7 * static_cast<double>(t) + 1.3 * static_cast<double>(d)) +
                  0.1 * static_cast<double>(d);
  return seq;
}

void dump_layer(std::ostream& os, const std::string& tag, std::size_t input_dim,
                std::size_t hidden, std::size_t steps, std::uint64_t seed) {
  Rng rng(seed);
  predictor::LstmLayer layer(input_dim, hidden, rng);
  const auto h = layer.forward(make_sequence(steps, input_dim));
  row(os, tag + " h", h);
  std::vector<double> dh(hidden);
  for (std::size_t j = 0; j < hidden; ++j) dh[j] = 0.5 - 0.25 * static_cast<double>(j % 5);
  const predictor::LstmGrads& g = layer.backward(dh);
  for (std::size_t r = 0; r < g.d_wx.rows(); ++r) {
    std::vector<double> wx(g.d_wx.cols()), wh(g.d_wh.cols());
    for (std::size_t c = 0; c < wx.size(); ++c) wx[c] = g.d_wx(r, c);
    for (std::size_t c = 0; c < wh.size(); ++c) wh[c] = g.d_wh(r, c);
    row(os, tag + " d_wx " + std::to_string(r), wx);
    row(os, tag + " d_wh " + std::to_string(r), wh);
  }
  row(os, tag + " d_b", g.d_b);
}

TEST(LstmGolden, LayerForwardBackward) {
  std::ostringstream os;
  dump_layer(os, "d2h6", 2, 6, 7, 31);    // multi-input layer: wx column order matters
  dump_layer(os, "d1h16", 1, 16, 16, 32); // the predictors' production shape
  expect_golden("layer", os.str());
}

/// A seeded bursty count series and the inter-arrival gaps aligned to it.
struct Series {
  std::vector<double> counts, gaps, aux;
};

Series make_series() {
  Rng rng(77);
  Series s;
  for (int t = 0; t < 300; ++t) {
    const double rate = 2.0 + 1.5 * std::sin(0.21 * t) + (t % 37 < 4 ? 6.0 : 0.0);
    s.counts.push_back(static_cast<double>(rng.poisson(rate)));
    s.gaps.push_back(rng.exponential(1.0 / (0.5 + 0.2 * std::cos(0.13 * t))));
    s.aux.push_back(s.counts.back());
  }
  return s;
}

TEST(LstmGolden, PredictorsFitAndPredict) {
  const Series s = make_series();
  const std::span<const double> counts(s.counts), gaps(s.gaps), aux(s.aux);
  std::ostringstream os;

  predictor::InvocationClassifier cls;
  cls.fit(counts.subspan(0, 250));
  std::vector<double> out;
  for (std::size_t t = 250; t < 300; ++t) out.push_back(cls.predict_next(counts.subspan(0, t)));
  row(os, "classifier", out);

  predictor::LstmRegressor single;
  single.fit(gaps.subspan(0, 250));
  out.clear();
  for (std::size_t t = 250; t < 300; ++t) out.push_back(single.predict_next(gaps.subspan(0, t)));
  row(os, "regressor", out);

  predictor::DualLstmRegressor dual;
  dual.fit(gaps.subspan(0, 250), aux.subspan(0, 250));
  out.clear();
  for (std::size_t t = 250; t < 300; ++t)
    out.push_back(dual.predict_next(gaps.subspan(0, t), aux.subspan(0, t)));
  row(os, "dual", out);
  expect_golden("predictors", os.str());
}

/// Forwards every hook to a SmilessPolicy and records its inter-arrival
/// prediction after each window.
class RecordingPolicy : public serverless::Policy {
 public:
  explicit RecordingPolicy(std::shared_ptr<core::SmilessPolicy> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void on_deploy(serverless::AppId app, const apps::App& spec,
                 serverless::PlatformView& platform) override {
    inner_->on_deploy(app, spec, platform);
  }
  void on_window(serverless::AppId app, const apps::App& spec,
                 serverless::PlatformView& platform,
                 const serverless::WindowStats& stats) override {
    inner_->on_window(app, spec, platform, stats);
    predicted_.push_back(inner_->predicted_interarrival());
  }
  void on_arrival(serverless::AppId app, const apps::App& spec,
                  serverless::PlatformView& platform, SimTime now) override {
    inner_->on_arrival(app, spec, platform, now);
  }
  void on_instance_failed(serverless::AppId app, const apps::App& spec,
                          serverless::PlatformView& platform, dag::NodeId node,
                          serverless::InstanceFailure kind) override {
    inner_->on_instance_failed(app, spec, platform, node, kind);
  }

  const std::vector<double>& predicted() const { return predicted_; }

 private:
  std::shared_ptr<core::SmilessPolicy> inner_;
  std::vector<double> predicted_;
};

TEST(LstmGolden, Wl1CellWithRefit) {
  constexpr double kDuration = 1800.0;
  Rng store_rng(2024);
  const baselines::ProfileStore store(profiler::OfflineProfiler{}, store_rng);
  const apps::App app = apps::make_amber_alert();
  Rng trace_rng(5);
  const workload::Trace trace =
      workload::generate_trace(workload::preset_for_workload(app.name, kDuration), trace_rng);

  core::SmilessOptions options;
  options.use_lstm = true;
  options.retrain_every = 600;  // trains at window 240, refits at 840 and 1440
  auto recorder = std::make_shared<RecordingPolicy>(
      std::make_shared<core::SmilessPolicy>("SMIless", store.for_app(app), options));

  sim::Engine engine;
  cluster::Cluster cluster = cluster::Cluster::paper_testbed();
  Rng platform_rng(11);
  serverless::Platform platform(engine, cluster, perf::Pricing{}, platform_rng);
  const serverless::AppId id = platform.deploy(app, recorder);
  for (SimTime t : trace.arrivals) platform.submit_request(id, t);
  const double end = kDuration + 120.0;
  engine.run_until(end);
  platform.finalize(end);

  const serverless::AppMetrics& m = platform.metrics(id);
  double e2e_sum = 0.0;
  for (const auto& r : m.completed) e2e_sum += r.e2e();
  std::ostringstream os;
  os << "submitted " << m.submitted << " completed " << m.completed.size() << " failed "
     << m.failed << '\n';
  row(os, "e2e_sum", std::vector<double>{e2e_sum});
  row(os, "cost", std::vector<double>{m.total_cost()});
  ASSERT_GE(recorder->predicted().size(), static_cast<std::size_t>(kDuration));
  for (std::size_t w = 0; w < recorder->predicted().size(); ++w)
    row(os, "it " + std::to_string(w), std::span<const double>(&recorder->predicted()[w], 1));
  expect_golden("wl1_cell", os.str());
}

}  // namespace
}  // namespace smiless
