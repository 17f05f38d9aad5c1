#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/catalog.hpp"
#include "cluster/cluster.hpp"
#include "serverless/platform.hpp"
#include "serverless/platform_view.hpp"
#include "sim/engine.hpp"

namespace smiless::serverless {
namespace {

/// Static test policy: installs a fixed plan for every function.
// Deliberately still overrides the deprecated Platform& hook: this suite is
// the coverage for the one-release migration shims (policy.hpp).
class FixedPolicy : public Policy {
 public:
  explicit FixedPolicy(FunctionPlan plan) : plan_(plan) {}
  std::string name() const override { return "fixed"; }
  void on_deploy(AppId app, const apps::App& spec, Platform& p) override {
    for (std::size_t n = 0; n < spec.dag.size(); ++n)
      p.set_plan(app, static_cast<dag::NodeId>(n), plan_);
  }

 private:
  FunctionPlan plan_;
};

struct Fixture {
  sim::Engine engine;
  cluster::Cluster cluster = cluster::Cluster::paper_testbed();
  Rng rng{123};
  PlatformOptions options;
  std::unique_ptr<Platform> platform;

  explicit Fixture(double noise = 0.0, bool record_windows = false) {
    options.inference_noise = noise;
    options.record_windows = record_windows;
    platform = std::make_unique<Platform>(engine, cluster, perf::Pricing{}, rng, options);
  }
};

FunctionPlan warm_plan() {
  FunctionPlan p;
  p.config = {perf::Backend::Cpu, 4, 0};
  p.keepalive = FunctionPlan::forever();
  return p;
}

TEST(Platform, SingleRequestCompletesThroughPipeline) {
  Fixture f;
  const auto id = f.platform->deploy(apps::make_voice_assistant(),
                                     std::make_shared<FixedPolicy>(warm_plan()));
  f.platform->submit_request(id, 1.0);
  f.engine.run_until(200.0);
  f.platform->finalize(200.0);

  const auto& m = f.platform->metrics(id);
  ASSERT_EQ(m.completed.size(), 1u);
  EXPECT_EQ(m.submitted, 1);
  // E2E includes the cold init of every stage (no pre-warming here).
  EXPECT_GT(m.completed[0].e2e(), 1.0);
}

TEST(Platform, ColdStartOnlyOnFirstOfTwoSpacedRequests) {
  Fixture f;
  const auto app = apps::make_voice_assistant();
  const auto id = f.platform->deploy(app, std::make_shared<FixedPolicy>(warm_plan()));
  f.platform->submit_request(id, 1.0);
  f.platform->submit_request(id, 60.0);
  f.engine.run_until(200.0);
  f.platform->finalize(200.0);

  const auto& m = f.platform->metrics(id);
  ASSERT_EQ(m.completed.size(), 2u);
  // Keep-alive forever: each function initialised exactly once.
  EXPECT_EQ(m.total_initializations(), static_cast<long>(app.dag.size()));
  // Second request is much faster (warm path).
  EXPECT_LT(m.completed[1].e2e(), m.completed[0].e2e() * 0.5);
}

TEST(Platform, DagFanOutExecutesAllFunctions) {
  Fixture f;
  const auto app = apps::make_amber_alert();
  const auto id = f.platform->deploy(app, std::make_shared<FixedPolicy>(warm_plan()));
  f.platform->submit_request(id, 1.0);
  f.engine.run_until(300.0);
  f.platform->finalize(300.0);

  const auto& m = f.platform->metrics(id);
  ASSERT_EQ(m.completed.size(), 1u);
  for (std::size_t n = 0; n < app.dag.size(); ++n)
    EXPECT_EQ(m.per_function[n].invocations, 1) << app.dag.name(static_cast<dag::NodeId>(n));
}

TEST(Platform, ParallelBranchesOverlap) {
  // AMBER's three recognisers run concurrently: E2E under a warm start is
  // close to the critical path, far below the sum of all six stages.
  Fixture f;
  const auto app = apps::make_amber_alert();
  const auto id = f.platform->deploy(app, std::make_shared<FixedPolicy>(warm_plan()));
  // Warm everything with a first request, then measure the second.
  f.platform->submit_request(id, 1.0);
  f.platform->submit_request(id, 100.0);
  f.engine.run_until(300.0);
  f.platform->finalize(300.0);

  std::vector<double> w(app.dag.size());
  double sum = 0.0;
  for (std::size_t n = 0; n < app.dag.size(); ++n) {
    w[n] = app.truth[n].inference_time({perf::Backend::Cpu, 4, 0}, 1);
    sum += w[n];
  }
  const double critical = app.dag.critical_path_weight(w);
  const auto& m = f.platform->metrics(id);
  ASSERT_EQ(m.completed.size(), 2u);
  const double warm_e2e = m.completed[1].e2e();
  EXPECT_LT(warm_e2e, sum * 0.8);
  EXPECT_NEAR(warm_e2e, critical, 0.35 * critical);
}

TEST(Platform, KeepaliveZeroTerminatesAfterUse) {
  Fixture f;
  FunctionPlan plan = warm_plan();
  plan.keepalive = 0.0;
  const auto id =
      f.platform->deploy(apps::make_voice_assistant(), std::make_shared<FixedPolicy>(plan));
  f.platform->submit_request(id, 1.0);
  f.engine.run_until(100.0);

  const auto& app = f.platform->app_spec(id);
  for (std::size_t n = 0; n < app.dag.size(); ++n)
    EXPECT_EQ(f.platform->instances_total(id, static_cast<dag::NodeId>(n)), 0);
  f.platform->finalize(100.0);
}

TEST(Platform, FiniteKeepaliveReapsAfterIdlePeriod) {
  Fixture f;
  FunctionPlan plan = warm_plan();
  plan.keepalive = 10.0;
  const auto id =
      f.platform->deploy(apps::make_voice_assistant(), std::make_shared<FixedPolicy>(plan));
  f.platform->submit_request(id, 1.0);
  f.engine.run_until(12.0);
  // Still warm shortly after completion...
  int total_at_12 = 0;
  for (std::size_t n = 0; n < 4; ++n)
    total_at_12 += f.platform->instances_total(id, static_cast<dag::NodeId>(n));
  EXPECT_GT(total_at_12, 0);
  f.engine.run_until(60.0);
  for (std::size_t n = 0; n < 4; ++n)
    EXPECT_EQ(f.platform->instances_total(id, static_cast<dag::NodeId>(n)), 0);
  f.platform->finalize(60.0);
}

TEST(Platform, PrewarmAvoidsColdStartOnCriticalPath) {
  Fixture f;
  const auto app = apps::make_voice_assistant();
  FunctionPlan plan = warm_plan();
  plan.keepalive = 0.0;
  plan.prewarm_grace = 10.0;
  const auto id = f.platform->deploy(app, std::make_shared<FixedPolicy>(plan));

  // Pre-warm every function early enough to be ready at t=30; the grace
  // keeps the warmed (never-used) instances alive until then.
  for (std::size_t n = 0; n < app.dag.size(); ++n)
    f.platform->prewarm_at(id, static_cast<dag::NodeId>(n), 25.0);
  f.platform->submit_request(id, 30.0);
  f.engine.run_until(100.0);
  f.platform->finalize(100.0);

  const auto& m = f.platform->metrics(id);
  ASSERT_EQ(m.completed.size(), 1u);
  // All inits overlapped the idle pre-warm period: E2E ~ sum of inference.
  std::vector<double> w(app.dag.size());
  for (std::size_t n = 0; n < app.dag.size(); ++n)
    w[n] = app.truth[n].inference_time({perf::Backend::Cpu, 4, 0}, 1);
  EXPECT_NEAR(m.completed[0].e2e(), app.dag.critical_path_weight(w),
              0.4 * app.dag.critical_path_weight(w));
}

TEST(Platform, PrewarmSkipsWhenInstanceAlreadyWarm) {
  Fixture f;
  const auto id = f.platform->deploy(apps::make_voice_assistant(),
                                     std::make_shared<FixedPolicy>(warm_plan()));
  f.platform->submit_request(id, 1.0);
  f.engine.run_until(50.0);
  const auto& m0 = f.platform->metrics(id);
  const long inits_before = m0.total_initializations();
  f.platform->prewarm_at(id, 0, 55.0);
  f.engine.run_until(80.0);
  EXPECT_EQ(f.platform->metrics(id).total_initializations(), inits_before);
  f.platform->finalize(80.0);
}

TEST(Platform, BatchingGroupsQueuedInvocations) {
  Fixture f;
  const auto app = apps::make_voice_assistant();
  FunctionPlan plan = warm_plan();
  plan.max_batch = 8;
  const auto id = f.platform->deploy(app, std::make_shared<FixedPolicy>(plan));
  // Six requests land at nearly the same instant.
  for (int i = 0; i < 6; ++i) f.platform->submit_request(id, 1.0 + 0.001 * i);
  f.engine.run_until(300.0);
  f.platform->finalize(300.0);

  const auto& m = f.platform->metrics(id);
  ASSERT_EQ(m.completed.size(), 6u);
  // Downstream stages see the batch arrive together: fewer inference calls
  // than invocations.
  const auto db = app.dag.find("DB");
  EXPECT_EQ(m.per_function[db].invocations, 6);
  EXPECT_LT(m.per_function[db].batches, 6);
}

TEST(Platform, MinInstancesFloorSpawnsImmediately) {
  Fixture f;
  const auto app = apps::make_voice_assistant();
  FunctionPlan plan = warm_plan();
  plan.min_instances = 3;
  const auto id = f.platform->deploy(app, std::make_shared<FixedPolicy>(plan));
  f.engine.run_until(20.0);
  for (std::size_t n = 0; n < app.dag.size(); ++n)
    EXPECT_EQ(f.platform->instances_total(id, static_cast<dag::NodeId>(n)), 3);
  f.platform->finalize(20.0);
}

TEST(Platform, BillingMatchesLifetimeTimesUnitPrice) {
  Fixture f;
  const auto app = apps::make_voice_assistant();
  FunctionPlan plan = warm_plan();
  plan.min_instances = 1;
  const auto id = f.platform->deploy(app, std::make_shared<FixedPolicy>(plan));
  f.engine.run_until(100.0);
  f.platform->finalize(100.0);

  const perf::Pricing pricing;
  const double per_inst = 100.0 * pricing.per_second({perf::Backend::Cpu, 4, 0});
  const auto& m = f.platform->metrics(id);
  // 4 functions x 1 instance alive from t=0 to t=100.
  EXPECT_NEAR(m.total_cost(), 4.0 * per_inst, 0.05 * 4.0 * per_inst);
}

TEST(Platform, WindowSamplesRecordArrivals) {
  Fixture f(0.0, /*record_windows=*/true);
  const auto id = f.platform->deploy(apps::make_voice_assistant(),
                                     std::make_shared<FixedPolicy>(warm_plan()));
  f.platform->submit_request(id, 0.5);
  f.platform->submit_request(id, 0.6);
  f.platform->submit_request(id, 2.5);
  f.engine.run_until(5.0);

  const auto& samples = f.platform->metrics(id).windows;
  ASSERT_GE(samples.size(), 3u);
  EXPECT_EQ(samples[0].window_start, 0.0);
  EXPECT_EQ(samples[0].arrivals, 2);
  EXPECT_EQ(samples[1].window_start, 1.0);
  EXPECT_EQ(samples[1].arrivals, 0);
  EXPECT_EQ(samples[2].window_start, 2.0);
  EXPECT_EQ(samples[2].arrivals, 1);
  f.platform->finalize(5.0);
}

/// One on_window call as the policy saw it.
struct Tick {
  AppId app;
  SimTime now;
  WindowStats stats;
};

/// Installs warm plans and logs every window it is told about.
class TickRecorder : public Policy {
 public:
  explicit TickRecorder(std::vector<Tick>* log) : log_(log) {}
  std::string name() const override { return "tick-recorder"; }
  void on_deploy(AppId app, const apps::App& spec, PlatformView& p) override {
    for (std::size_t n = 0; n < spec.dag.size(); ++n)
      p.set_plan(app, static_cast<dag::NodeId>(n), warm_plan());
  }
  void on_window(AppId app, const apps::App&, PlatformView& p,
                 const WindowStats& stats) override {
    log_->push_back({app, p.now(), stats});
  }

 private:
  std::vector<Tick>* log_;
};

TEST(Platform, WindowSamplesAreOptIn) {
  Fixture f;
  std::vector<Tick> ticks;
  const auto id = f.platform->deploy(apps::make_voice_assistant(),
                                     std::make_shared<TickRecorder>(&ticks));
  f.platform->submit_request(id, 0.5);
  f.engine.run_until(5.0);
  f.platform->finalize(5.0);
  EXPECT_TRUE(f.platform->metrics(id).windows.empty());
  ASSERT_EQ(ticks.size(), 5u);  // the policy still sees every window
  EXPECT_EQ(ticks[0].stats.arrivals, 1);
}

/// Tick semantics: three apps deployed at t=0 and one at t=0.5. At every
/// boundary on_window runs in deploy order; the late app closes its own
/// windows [0.5 + k, 1.5 + k); halt() stops every app's ticks.
TEST(Platform, WindowTicksRunInDeployOrderAndHaltStopsThemAll) {
  Fixture f;
  std::vector<Tick> ticks;
  const auto policy = std::make_shared<TickRecorder>(&ticks);
  std::vector<AppId> early;
  for (int i = 0; i < 3; ++i)
    early.push_back(f.platform->deploy(apps::make_voice_assistant(), policy));
  AppId late = -1;
  f.engine.schedule_at(0.5, [&] {
    late = f.platform->deploy(apps::make_voice_assistant(), policy);
    f.platform->submit_request(late, 0.7);
    f.platform->submit_request(late, 2.9);
  });
  f.platform->submit_request(early[1], 0.3);
  f.platform->submit_request(early[1], 1.2);
  constexpr double kEnd = 60.0;
  f.engine.run_until(kEnd);
  ASSERT_EQ(late, 3);

  // 60 boundaries for the early apps, 59 (1.5 .. 59.5) for the late one.
  ASSERT_EQ(ticks.size(), 60u * 3u + 59u);
  std::size_t i = 0;
  for (int k = 1; k <= 60; ++k) {
    for (const AppId app : early) {
      SCOPED_TRACE("boundary " + std::to_string(k) + " app " + std::to_string(app));
      const Tick& t = ticks[i++];
      EXPECT_EQ(t.app, app);
      EXPECT_EQ(t.now, static_cast<double>(k));
      EXPECT_EQ(t.stats.window_end, static_cast<double>(k));
      EXPECT_EQ(t.stats.window_start, static_cast<double>(k - 1));
      const int expected = app == early[1] && k <= 2 ? 1 : 0;
      EXPECT_EQ(t.stats.arrivals, expected);
    }
    if (k == 60) break;
    SCOPED_TRACE("late app, boundary " + std::to_string(k) + ".5");
    const Tick& t = ticks[i++];
    EXPECT_EQ(t.app, late);
    EXPECT_EQ(t.now, k + 0.5);
    EXPECT_EQ(t.stats.window_end, k + 0.5);
    EXPECT_EQ(t.stats.window_start, k - 0.5);
    EXPECT_EQ(t.stats.arrivals, k == 1 || k == 3 ? 1 : 0);
  }

  f.platform->finalize(kEnd);
  f.engine.run_until(kEnd + 20.0);
  EXPECT_EQ(ticks.size(), 60u * 3u + 59u);
}

/// Logs ticks by name; app 1's tick at t=2 queues an event for exactly the
/// next boundary, as a policy timer landing on a boundary would.
class BoundaryInterloper : public Policy {
 public:
  BoundaryInterloper(sim::Engine* engine, std::vector<std::string>* log)
      : engine_(engine), log_(log) {}
  std::string name() const override { return "boundary-interloper"; }
  void on_deploy(AppId app, const apps::App& spec, PlatformView& p) override {
    for (std::size_t n = 0; n < spec.dag.size(); ++n)
      p.set_plan(app, static_cast<dag::NodeId>(n), warm_plan());
  }
  void on_window(AppId app, const apps::App&, PlatformView& p, const WindowStats&) override {
    log_->push_back("tick" + std::to_string(app) + "@" + std::to_string(static_cast<int>(p.now())));
    if (app == 1 && p.now() == 2.0)
      engine_->schedule_at(3.0, [log = log_] { log->push_back("X@3"); });
  }

 private:
  sim::Engine* engine_;
  std::vector<std::string>* log_;
};

/// Events queued for exactly a boundary keep their place between the apps'
/// ticks: one queued between two deploys fires after the earlier app's tick
/// and before the later one's, and one queued by an on_window fires after
/// the ticks of the apps before it and before the queuing app's own.
TEST(Platform, BoundaryEventsKeepTheirPlaceBetweenAppTicks) {
  Fixture f;
  std::vector<std::string> log;
  const auto policy = std::make_shared<BoundaryInterloper>(&f.engine, &log);
  f.platform->deploy(apps::make_voice_assistant(), policy);
  f.platform->deploy(apps::make_voice_assistant(), policy);
  f.engine.schedule_at(1.0, [&log] { log.push_back("Y@1"); });
  f.platform->deploy(apps::make_voice_assistant(), policy);
  f.engine.run_until(3.5);
  f.platform->finalize(3.5);
  const std::vector<std::string> expected = {
      "tick0@1", "tick1@1", "Y@1",     "tick2@1",  // Y was queued between deploys
      "tick0@2", "tick1@2", "tick2@2",             //
      "tick0@3", "X@3",     "tick1@3", "tick2@3",  // X was queued by app 1's tick
  };
  EXPECT_EQ(log, expected);
}

TEST(Platform, InFlightTracksUnfinishedRequests) {
  Fixture f;
  const auto id = f.platform->deploy(apps::make_voice_assistant(),
                                     std::make_shared<FixedPolicy>(warm_plan()));
  f.platform->submit_request(id, 1.0);
  f.engine.run_until(1.5);  // mid-execution
  EXPECT_EQ(f.platform->in_flight(id), 1);
  f.engine.run_until(100.0);
  EXPECT_EQ(f.platform->in_flight(id), 0);
  f.platform->finalize(100.0);
}

TEST(Platform, ConfigChangeReapsStaleInstancesWhenIdle) {
  Fixture f;
  const auto app = apps::make_voice_assistant();
  const auto id = f.platform->deploy(app, std::make_shared<FixedPolicy>(warm_plan()));
  f.platform->submit_request(id, 1.0);
  f.engine.run_until(50.0);

  FunctionPlan gpu_plan;
  gpu_plan.config = {perf::Backend::Gpu, 0, 20};
  gpu_plan.keepalive = FunctionPlan::forever();
  f.platform->set_plan(id, 0, gpu_plan);
  f.platform->submit_request(id, 60.0);
  f.engine.run_until(200.0);

  // Node 0's old CPU instance was replaced by a GPU one.
  EXPECT_EQ(f.platform->instances_total(id, 0), 1);
  f.platform->finalize(200.0);
  const auto& m = f.platform->metrics(id);
  EXPECT_GT(m.per_function[0].billed_gpu_seconds, 0.0);
}

TEST(Platform, PrewarmNotCancelledByDyingInstance) {
  // Regression: an instance from the previous request that will die before
  // the pre-warmed one would even be ready must NOT cancel the pre-warm.
  Fixture f;
  const auto app = apps::make_voice_assistant();
  FunctionPlan plan = warm_plan();
  plan.keepalive = 2.0;        // dies quickly
  plan.prewarm_grace = 10.0;
  const auto id = f.platform->deploy(app, std::make_shared<FixedPolicy>(plan));

  f.platform->submit_request(id, 1.0);  // cold chain, instances die by ~t=14
  // Pre-warm scheduled while the old instances are still around but doomed.
  for (std::size_t n = 0; n < app.dag.size(); ++n)
    f.platform->prewarm_at(id, static_cast<dag::NodeId>(n), 13.0);
  f.engine.run_until(20.0);
  // The pre-warm must have created fresh instances even though old ones
  // existed at t=13 (they were going to die before t=13+init).
  int warm = 0;
  for (std::size_t n = 0; n < app.dag.size(); ++n)
    warm += f.platform->instances_total(id, static_cast<dag::NodeId>(n));
  EXPECT_EQ(warm, static_cast<int>(app.dag.size()));
  f.platform->finalize(20.0);
}

TEST(Platform, PrewarmSkippedWhenKeepaliveCoversIt) {
  Fixture f;
  const auto app = apps::make_voice_assistant();
  const auto id = f.platform->deploy(app, std::make_shared<FixedPolicy>(warm_plan()));
  f.platform->submit_request(id, 1.0);
  f.engine.run_until(30.0);
  const long inits = f.platform->metrics(id).total_initializations();
  // Keep-alive is infinite: a pre-warm for any time is redundant.
  for (std::size_t n = 0; n < app.dag.size(); ++n)
    f.platform->prewarm_at(id, static_cast<dag::NodeId>(n), 40.0);
  f.engine.run_until(80.0);
  EXPECT_EQ(f.platform->metrics(id).total_initializations(), inits);
  f.platform->finalize(80.0);
}

TEST(Platform, AllocationFailureRetriesWhenCapacityFrees) {
  // A 1-machine cluster with 4 cores: the first request occupies it; a
  // second app's request must wait for capacity and then complete.
  sim::Engine engine;
  cluster::Cluster tiny(1, {4, 0});
  Rng rng(77);
  PlatformOptions options;
  options.inference_noise = 0.0;
  Platform platform(engine, tiny, perf::Pricing{}, rng, options);

  FunctionPlan plan;
  plan.config = {perf::Backend::Cpu, 4, 0};
  plan.keepalive = 0.0;  // release capacity promptly
  plan.prewarm_grace = 0.0;
  apps::App single;
  single.name = "single";
  single.sla = 30.0;
  single.dag.add_node("QA");
  single.truth.push_back(apps::model_by_name("QA"));

  const auto a = platform.deploy(single, std::make_shared<FixedPolicy>(plan));
  apps::App second = single;
  second.name = "single-2";
  const auto b = platform.deploy(second, std::make_shared<FixedPolicy>(plan));

  platform.submit_request(a, 1.0);
  platform.submit_request(b, 1.1);  // cluster full at this instant
  engine.run_until(60.0);
  platform.finalize(60.0);
  EXPECT_EQ(platform.metrics(a).completed.size(), 1u);
  EXPECT_EQ(platform.metrics(b).completed.size(), 1u);
  EXPECT_GT(platform.metrics(b).completed[0].e2e(),
            platform.metrics(a).completed[0].e2e());
}

TEST(Platform, MultipleAppsKeepSeparateBooks) {
  Fixture f;
  const auto id1 = f.platform->deploy(apps::make_voice_assistant(),
                                      std::make_shared<FixedPolicy>(warm_plan()));
  const auto id2 = f.platform->deploy(apps::make_image_query(),
                                      std::make_shared<FixedPolicy>(warm_plan()));
  f.platform->submit_request(id1, 1.0);
  f.platform->submit_request(id2, 1.0);
  f.platform->submit_request(id2, 2.0);
  f.engine.run_until(120.0);
  f.platform->finalize(120.0);
  EXPECT_EQ(f.platform->metrics(id1).submitted, 1);
  EXPECT_EQ(f.platform->metrics(id2).submitted, 2);
  EXPECT_EQ(f.platform->metrics(id1).completed.size(), 1u);
  EXPECT_EQ(f.platform->metrics(id2).completed.size(), 2u);
}

TEST(Platform, FinalizeIsIdempotent) {
  Fixture f;
  const auto id = f.platform->deploy(apps::make_voice_assistant(),
                                     std::make_shared<FixedPolicy>(warm_plan()));
  f.platform->submit_request(id, 1.0);
  f.engine.run_until(60.0);
  f.platform->finalize(60.0);
  const double cost = f.platform->metrics(id).total_cost();
  f.platform->finalize(60.0);
  EXPECT_DOUBLE_EQ(f.platform->metrics(id).total_cost(), cost);
}

TEST(Platform, ClearPrewarmsCancelsScheduledWarmups) {
  Fixture f;
  const auto app = apps::make_voice_assistant();
  FunctionPlan plan = warm_plan();
  plan.keepalive = 0.0;
  plan.prewarm_grace = 1.0;
  const auto id = f.platform->deploy(app, std::make_shared<FixedPolicy>(plan));
  f.platform->prewarm_at(id, 0, 10.0);
  f.platform->clear_prewarms(id, 0);
  f.engine.run_until(30.0);
  EXPECT_EQ(f.platform->metrics(id).total_initializations(), 0);
  f.platform->finalize(30.0);
}

TEST(Platform, CancelPrewarmAfterFiredIsHarmless) {
  // Cancelling a pre-warm whose timer already fired must neither kill the
  // instance it created nor disturb anything else (the handle is stale).
  Fixture f;
  const auto app = apps::make_voice_assistant();
  FunctionPlan plan = warm_plan();
  plan.keepalive = 0.0;
  plan.prewarm_grace = 50.0;
  const auto id = f.platform->deploy(app, std::make_shared<FixedPolicy>(plan));
  const sim::EventId handle = f.platform->prewarm_at(id, 0, 5.0);
  f.engine.run_until(20.0);  // fired at t=5, instance init done by now
  EXPECT_EQ(f.platform->metrics(id).per_function[0].initializations, 1);
  EXPECT_EQ(f.platform->instances_total(id, 0), 1);
  f.platform->cancel_prewarm(handle);
  f.engine.run_until(30.0);
  EXPECT_EQ(f.platform->instances_total(id, 0), 1);
  EXPECT_EQ(f.platform->metrics(id).per_function[0].initializations, 1);
  f.platform->finalize(30.0);
}

TEST(Platform, ClearPrewarmsCancelsAllPendingTimers) {
  // Several pre-warms queued on the same function: one clear_prewarms call
  // cancels every pending timer, and only that function's — a sibling
  // function's pre-warm still fires.
  Fixture f;
  const auto app = apps::make_voice_assistant();
  FunctionPlan plan = warm_plan();
  plan.keepalive = 0.0;
  plan.prewarm_grace = 1.0;
  const auto id = f.platform->deploy(app, std::make_shared<FixedPolicy>(plan));
  f.platform->prewarm_at(id, 0, 10.0);
  f.platform->prewarm_at(id, 0, 20.0);
  f.platform->prewarm_at(id, 0, 30.0);
  f.platform->prewarm_at(id, 1, 25.0);
  f.platform->clear_prewarms(id, 0);
  f.engine.run_until(40.0);
  const auto& m = f.platform->metrics(id);
  EXPECT_EQ(m.per_function[0].initializations, 0);
  EXPECT_EQ(m.per_function[1].initializations, 1);
  f.platform->finalize(40.0);
}

TEST(Platform, PrewarmSkippedWhileInstanceStillInitializing) {
  // A pre-warm firing while a cold init is already in progress (instance in
  // the Init state, keep-alive forever) is redundant and must be skipped.
  Fixture f;
  const auto app = apps::make_voice_assistant();
  const auto id = f.platform->deploy(app, std::make_shared<FixedPolicy>(warm_plan()));
  f.platform->submit_request(id, 1.0);  // node 0 cold init starts at t=1
  f.platform->prewarm_at(id, 0, 1.5);   // fires mid-init
  f.engine.run_until(100.0);
  const auto& m = f.platform->metrics(id);
  ASSERT_EQ(m.completed.size(), 1u);
  // Only the on-demand cold start initialised node 0; the pre-warm did not.
  EXPECT_EQ(m.per_function[0].initializations, 1);
  EXPECT_EQ(f.platform->instances_total(id, 0), 1);
  f.platform->finalize(100.0);
}

}  // namespace
}  // namespace smiless::serverless
