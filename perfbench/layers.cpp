#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/catalog.hpp"
#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/autoscaler.hpp"
#include "core/smiless_policy.hpp"
#include "core/workflow_manager.hpp"
#include "host.hpp"
#include "keepwarm.hpp"
#include "predictor/invocation_classifier.hpp"
#include "predictor/lstm_regressor.hpp"
#include "serverless/platform.hpp"
#include "sim/engine.hpp"
#include "workload/trace.hpp"

namespace perfbench {

using namespace smiless;

namespace {

struct Row {
  double per_op = 0.0;  ///< cost of one operation, in the row's unit
  std::uint64_t ops = 0;
};

/// Hold model: keep 10 k events pending; each fired event schedules its
/// replacement at now + Exp(1). Schedule and pop cost of the event queue.
Row sim_hold(std::uint64_t seed) {
  constexpr std::uint64_t kEvents = 2'000'000;
  constexpr std::size_t kLive = 10'000;
  sim::Engine engine;
  Rng rng(seed);
  std::uint64_t scheduled = 0;
  std::function<void()> hold = [&] {
    if (scheduled < kEvents) {
      ++scheduled;
      engine.schedule_after(rng.exponential(1.0), hold);
    }
  };
  const std::uint64_t t0 = wall_ns();
  for (std::size_t i = 0; i < kLive; ++i) {
    ++scheduled;
    engine.schedule_after(rng.exponential(1.0), hold);
  }
  engine.run();
  const double ns = static_cast<double>(wall_ns() - t0);
  const std::uint64_t fired = engine.stats().fired;
  return {ns / static_cast<double>(fired), fired};
}

/// Engine pump: one million events with empty callbacks already queued,
/// then run() drains them. Dispatch-loop cost per event.
Row sim_pump(std::uint64_t seed) {
  constexpr std::size_t kEvents = 1'000'000;
  sim::Engine engine;
  Rng rng(seed);
  for (std::size_t i = 0; i < kEvents; ++i) engine.schedule_at(rng.uniform(0.0, 1000.0), [] {});
  const std::uint64_t t0 = wall_ns();
  engine.run();
  const double ns = static_cast<double>(wall_ns() - t0);
  const std::uint64_t fired = engine.stats().fired;
  return {ns / static_cast<double>(fired), fired};
}

/// Window ticks: a Platform with 2000 three-node apps, no arrivals and a
/// policy that only counts windows. Gateway tick cost per app-window.
Row serverless_tick(std::uint64_t seed) {
  constexpr int kApps = 2000;
  constexpr double kHorizon = 200.0;
  sim::Engine engine;
  cluster::Cluster cluster(8, cluster::MachineSpec{});
  Rng rng(seed);
  serverless::Platform platform(engine, cluster, perf::Pricing{}, rng);
  auto policy = std::make_shared<KeepWarmPolicy>();
  for (int a = 0; a < kApps; ++a) platform.deploy(apps::make_synthetic_pipeline(3, 2.0), policy);
  const std::uint64_t t0 = wall_ns();
  engine.run_until(kHorizon);
  const double ns = static_cast<double>(wall_ns() - t0);
  platform.finalize(kHorizon);
  const auto windows = static_cast<std::uint64_t>(policy->windows());
  return {windows > 0 ? ns / static_cast<double>(windows) : 0.0, windows};
}

/// Dispatch: one always-warm function (16 cores, batch 4) under a dense
/// regular trace. Gateway intake, scheduler dispatch and batch completion
/// per invocation.
Row serverless_dispatch(std::uint64_t seed) {
  constexpr double kDuration = 2000.0;
  sim::Engine engine;
  cluster::Cluster cluster(8, cluster::MachineSpec{});
  Rng rng(seed);
  serverless::Platform platform(engine, cluster, perf::Pricing{}, rng);
  serverless::FunctionPlan plan;
  plan.config = perf::HwConfig{perf::Backend::Cpu, 16, 0};
  plan.keepalive = serverless::FunctionPlan::forever();
  plan.max_batch = 4;
  const serverless::AppId app = platform.deploy(apps::make_synthetic_pipeline(1, 2.0),
                                                std::make_shared<KeepWarmPolicy>(plan));
  Rng trace_rng = rng.fork(0xD15);
  const workload::Trace trace = workload::generate_regular_trace(0.05, 0.05, kDuration, trace_rng);
  const std::uint64_t t0 = wall_ns();
  for (const SimTime t : trace.arrivals) platform.submit_request(app, t);
  engine.run_until(kDuration + 120.0);
  platform.finalize(kDuration + 120.0);
  const double ns = static_cast<double>(wall_ns() - t0);
  const auto invocations = static_cast<std::uint64_t>(platform.metrics(app).total_invocations());
  return {invocations > 0 ? ns / static_cast<double>(invocations) : 0.0, invocations};
}

/// The wl1 app's history under its preset trace, as the policy sees it:
/// per-window counts, the inter-arrival gaps and, aligned with each gap, the
/// count of the window the gap ends in.
struct History {
  std::vector<double> counts;
  std::vector<double> gaps;
  std::vector<double> gap_counts;
};

History paper_history(std::uint64_t seed) {
  Rng rng(seed);
  Rng child = rng.fork(1);
  const workload::Trace trace = workload::generate_trace(
      workload::preset_for_workload(apps::make_amber_alert().name, 7200.0), child);
  History h;
  h.counts = trace.counts_as_double();
  for (std::size_t i = 1; i < trace.arrivals.size(); ++i) {
    h.gaps.push_back(trace.arrivals[i] - trace.arrivals[i - 1]);
    const auto w = static_cast<std::size_t>(trace.arrivals[i] / trace.window);
    h.gap_counts.push_back(w < h.counts.size() ? h.counts[w] : 0.0);
  }
  return h;
}

constexpr std::size_t kTrainWindows = 240;  // SmilessOptions::train_after
constexpr std::size_t kPredictions = 400;

void predictors(const History& h, Row& count_fit, Row& count_predict, Row& it_fit,
                Row& it_predict) {
  std::uint64_t t0 = wall_ns();
  predictor::InvocationClassifier clf;
  clf.fit(std::span<const double>(h.counts.data(), kTrainWindows));
  count_fit = {static_cast<double>(wall_ns() - t0) / kNanosPerMilli, 1};

  double sink = 0.0;
  t0 = wall_ns();
  for (std::size_t k = 0; k < kPredictions; ++k)
    sink += clf.predict_next(std::span<const double>(h.counts.data(), kTrainWindows + k));
  count_predict = {static_cast<double>(wall_ns() - t0) / kNanosPerMicro / kPredictions,
                   kPredictions};

  const std::size_t n = std::min(kTrainWindows, h.gaps.size());
  t0 = wall_ns();
  predictor::DualLstmRegressor it;
  it.fit(std::span<const double>(h.gaps.data(), n),
         std::span<const double>(h.gap_counts.data(), n));
  it_fit = {static_cast<double>(wall_ns() - t0) / kNanosPerMilli, 1};

  const std::size_t m = std::min(kPredictions, h.gaps.size() - n);
  t0 = wall_ns();
  for (std::size_t k = 0; k < m; ++k)
    sink += it.predict_next(std::span<const double>(h.gaps.data(), n + k),
                            std::span<const double>(h.gap_counts.data(), n + k));
  it_predict = {m > 0 ? static_cast<double>(wall_ns() - t0) / kNanosPerMicro /
                            static_cast<double>(m)
                      : 0.0,
                m};
  if (std::isnan(sink)) throw std::runtime_error("predictor returned NaN");
}

/// Strategy optimizer and autoscaler over the four paper apps at a sweep
/// of inter-arrival times and burst sizes.
void policy_solvers(Row& optimize, Row& autoscale) {
  constexpr int kRounds = 400;
  const std::vector<apps::App> cell = {apps::make_amber_alert(), apps::make_image_query(),
                                       apps::make_voice_assistant(), apps::make_ipa()};
  const core::WorkflowManager manager{core::StrategyOptimizer{}};
  const core::OptimizerOptions oo;
  const core::AutoScaler scaler(oo.config_space, oo.pricing);
  const double sla_margin = core::SmilessOptions{}.sla_margin;
  std::vector<std::vector<double>> budgets;
  std::uint64_t t0 = wall_ns();
  for (int r = 0; r < kRounds; ++r) {
    for (const apps::App& app : cell) {
      const double it = 1.0 + 0.25 * (r % 12);
      const core::AppSolution sol = manager.optimize(app.dag, app.truth, it, app.sla * sla_margin);
      if (r == 0) {
        std::vector<double> b;
        for (const auto& d : sol.per_node) b.push_back(d.inference_time);
        budgets.push_back(std::move(b));
      }
    }
  }
  const std::uint64_t solves = static_cast<std::uint64_t>(kRounds) * cell.size();
  optimize = {static_cast<double>(wall_ns() - t0) / kNanosPerMilli / static_cast<double>(solves),
              solves};

  t0 = wall_ns();
  for (int r = 0; r < kRounds; ++r)
    for (std::size_t a = 0; a < cell.size(); ++a)
      (void)scaler.solve_all(cell[a].truth, budgets[a], 4 + (r % 16), 1.0);
  autoscale = {static_cast<double>(wall_ns() - t0) / kNanosPerMilli / static_cast<double>(solves),
               solves};
}

}  // namespace

void add_micro_rows(json::Value& layers, json::Value& doc, std::uint64_t seed) {
  json::Value ops = json::Value::object();
  auto put = [&](const char* name, const Row& row) {
    layers[name] = row.per_op;
    ops[name] = static_cast<unsigned long long>(row.ops);
  };
  put("sim.hold_ns_per_event", sim_hold(seed));
  put("sim.pump_ns_per_event", sim_pump(seed));
  put("serverless.tick_ns_per_app_window", serverless_tick(seed));
  put("serverless.dispatch_ns_per_invocation", serverless_dispatch(seed));
  Row count_fit, count_predict, it_fit, it_predict;
  predictors(paper_history(seed), count_fit, count_predict, it_fit, it_predict);
  put("predictor.count_fit_ms", count_fit);
  put("predictor.count_predict_us", count_predict);
  put("predictor.it_fit_ms", it_fit);
  put("predictor.it_predict_us", it_predict);
  Row optimize, autoscale;
  policy_solvers(optimize, autoscale);
  put("core.optimize_ms", optimize);
  put("core.autoscale_ms", autoscale);
  doc["micro_ops"] = std::move(ops);
}

}  // namespace perfbench
