// Lane-equivalence suite for intra-cell sharding (DESIGN.md §14).
//
// The contracts under test, all byte-level:
//  - a single-app cell is invariant in the lane count K (the lone populated
//    lane inherits the whole cluster and the unmixed seed), across policies,
//    seeds, and with fault injection + observability on;
//  - a multi-app sharded cell is invariant in lane_threads (parallelism is
//    wall-clock only).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <string>
#include <vector>

#include "apps/catalog.hpp"
#include "baselines/experiment.hpp"
#include "cluster/cluster.hpp"
#include "common/check.hpp"
#include "exp/config.hpp"
#include "exp/runner.hpp"
#include "obs/audit.hpp"
#include "obs/telemetry.hpp"
#include "rt/driver.hpp"
#include "serverless/platform_view.hpp"
#include "serverless/sharding.hpp"
#include "sim/clock.hpp"
#include "sim/engine.hpp"
#include "workload/trace.hpp"

using namespace smiless;

namespace {

/// Field-by-field byte equality of two run outcomes.
void expect_same_result(const baselines::RunResult& a, const baselines::RunResult& b) {
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.app, b.app);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.violation_ratio, b.violation_ratio);
  EXPECT_EQ(a.e2e, b.e2e);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.invocations, b.invocations);
  EXPECT_EQ(a.initializations, b.initializations);
  EXPECT_EQ(a.init_failures, b.init_failures);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.cpu_core_seconds, b.cpu_core_seconds);
  EXPECT_EQ(a.gpu_pct_seconds, b.gpu_pct_seconds);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    EXPECT_EQ(a.windows[i].window_start, b.windows[i].window_start);
    EXPECT_EQ(a.windows[i].arrivals, b.windows[i].arrivals);
    EXPECT_EQ(a.windows[i].instances_total, b.windows[i].instances_total);
    EXPECT_EQ(a.windows[i].instances_cpu, b.windows[i].instances_cpu);
    EXPECT_EQ(a.windows[i].instances_gpu, b.windows[i].instances_gpu);
  }
}

/// Byte equality of every exported observability artifact.
void expect_same_telemetry(const obs::Telemetry& a, const obs::Telemetry& b) {
  EXPECT_EQ(a.bus().size(), b.bus().size());
  EXPECT_EQ(a.perfetto_json().dump(), b.perfetto_json().dump());
  EXPECT_EQ(a.metrics_json().dump(), b.metrics_json().dump());
  EXPECT_EQ(a.audit_json().dump(), b.audit_json().dump());
}

/// A single-app cell with faults and observability on — the full surface a
/// lane must reproduce.
exp::ExperimentConfig cell(const std::string& policy, std::uint64_t seed, int lanes) {
  exp::ExperimentConfig c;
  c.app = "wl1";
  c.policy = policy;
  c.seed = seed;
  c.trace.seed = seed;
  c.trace.duration = 120.0;
  c.lanes = lanes;
  c.platform.record_windows = true;  // expect_same_result compares the samples
  c.faults.init_failure_prob = 0.05;
  c.faults.straggler_prob = 0.02;
  c.faults.crash_rate = 0.0005;
  c.faults.crash_horizon = 100.0;
  // Any non-empty artifact path turns collection on; run_cell never writes
  // the files itself, so the names are inert.
  c.obs.trace_out = "unused.json";
  c.obs.metrics_out = "unused.json";
  c.obs.audit_out = "unused.json";
  return c;
}

exp::Runner& runner() {
  static exp::Runner r(exp::RunnerOptions{});
  return r;
}

/// K=1 vs K in {2,4,8}, 2 policies x 2 seeds, faults + obs on. Single-app
/// cells must be invariant in K at the artifact byte level.
TEST(Sharding, SingleAppCellIsInvariantInLaneCount) {
  const auto& store = runner().profiles(2024);
  for (const std::string policy : {"smiless", "orion"}) {
    for (const std::uint64_t seed : {std::uint64_t{42}, std::uint64_t{1337}}) {
      const exp::CellResult base =
          exp::Runner::run_cell(cell(policy, seed, 1), store, runner().policy_pool());
      ASSERT_NE(base.telemetry, nullptr);
      for (const int k : {2, 4, 8}) {
        for (const int lane_threads : {1, 2}) {
          const exp::CellResult sharded = exp::Runner::run_cell(
              cell(policy, seed, k), store, runner().policy_pool(), lane_threads);
          SCOPED_TRACE(policy + " seed=" + std::to_string(seed) +
                       " lanes=" + std::to_string(k) +
                       " lane_threads=" + std::to_string(lane_threads));
          expect_same_result(base.result, sharded.result);
          ASSERT_NE(sharded.telemetry, nullptr);
          expect_same_telemetry(*base.telemetry, *sharded.telemetry);
        }
      }
    }
  }
}

/// The multi-app fixture: three preset apps under cheap baseline policies.
struct Deployment {
  std::vector<apps::App> apps;
  std::vector<workload::Trace> traces;

  explicit Deployment(double duration) {
    exp::ExperimentConfig c;
    c.trace.duration = duration;
    for (const char* name : {"wl1", "wl2", "wl3", "ipa"}) {
      c.app = name;
      apps.push_back(exp::resolve_app(c));
      traces.push_back(exp::build_trace(c, apps.back()));
    }
  }

  std::vector<baselines::ColocatedApp> colocated(const baselines::ProfileStore& store) const {
    std::vector<baselines::ColocatedApp> out;
    for (std::size_t i = 0; i < apps.size(); ++i) {
      baselines::PolicySettings settings;
      settings.pool = runner().policy_pool();
      out.push_back({apps[i], &traces[i],
                     baselines::make_policy(i % 2 == 0 ? baselines::PolicyKind::Orion
                                                       : baselines::PolicyKind::GrandSlam,
                                            apps[i], store, settings)});
    }
    return out;
  }
};

baselines::ExperimentOptions sharded_options(obs::Telemetry* tel, int lanes,
                                             int lane_threads) {
  baselines::ExperimentOptions o;
  o.seed = 7;
  o.lanes = lanes;
  o.lane_threads = lane_threads;
  o.faults.init_failure_prob = 0.03;
  o.faults.straggler_prob = 0.01;
  o.telemetry = tel;
  o.platform.record_windows = true;  // expect_same_result compares the samples
  return o;
}

/// A genuinely partitioned cell (4 apps over 4 lanes) must not care how many
/// threads step the lanes.
TEST(Sharding, MultiAppShardIsInvariantInLaneThreads) {
  const auto& store = runner().profiles(2024);
  const Deployment dep(90.0);

  obs::Telemetry serial_tel;
  const auto serial =
      baselines::run_colocated(dep.colocated(store), sharded_options(&serial_tel, 4, 1));

  for (const int lane_threads : {2, 4}) {
    obs::Telemetry tel;
    const auto parallel =
        baselines::run_colocated(dep.colocated(store), sharded_options(&tel, 4, lane_threads));
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("lane_threads=" + std::to_string(lane_threads) + " app " + serial[i].app);
      expect_same_result(serial[i], parallel[i]);
    }
    expect_same_telemetry(serial_tel, tel);
  }
}

/// Warm plans on deploy; logs the arrival count of every window it is told
/// about, which is what a policy reading WindowStats acts on.
class WindowCountLog : public serverless::Policy {
 public:
  explicit WindowCountLog(std::vector<int>* seen) : seen_(seen) {}
  std::string name() const override { return "window-count-log"; }
  void on_deploy(serverless::AppId app, const apps::App& spec,
                 serverless::PlatformView& p) override {
    serverless::FunctionPlan plan;
    plan.config = {perf::Backend::Cpu, 4, 0};
    plan.keepalive = serverless::FunctionPlan::forever();
    for (std::size_t n = 0; n < spec.dag.size(); ++n)
      p.set_plan(app, static_cast<dag::NodeId>(n), plan);
  }
  void on_window(serverless::AppId, const apps::App&, serverless::PlatformView&,
                 const serverless::WindowStats& stats) override {
    seen_->push_back(stats.arrivals);
  }

 private:
  std::vector<int>* seen_;
};

/// The boundary fixture: arrivals at 0.5 and at exactly the boundaries 1, 2,
/// 3 (twice: 3.0 and 3.5 share window 3) and 5.
workload::Trace boundary_trace() {
  workload::Trace trace;
  trace.window = 1.0;
  trace.arrivals = {0.5, 1.0, 2.0, 3.0, 3.5, 5.0};
  trace.counts = {1, 1, 1, 2, 0, 1};
  return trace;
}

/// Windows are half-open, [k, k+1): an arrival at exactly a boundary counts
/// in the window the boundary opens, both in the window sample and in the
/// WindowStats the policy is told about.
void expect_boundary_windows(const std::vector<serverless::WindowSample>& windows,
                             const std::vector<int>& seen) {
  const std::vector<int> expected = {1, 1, 1, 2, 0, 1};
  ASSERT_GE(windows.size(), expected.size());
  ASSERT_GE(seen.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    SCOPED_TRACE("window " + std::to_string(k));
    EXPECT_EQ(windows[k].window_start, static_cast<double>(k));
    EXPECT_EQ(windows[k].arrivals, expected[k]);
    EXPECT_EQ(seen[k], expected[k]);
  }
}

/// The lane injects each window's arrivals at its barrier, after the
/// boundary's tick is queued, so a boundary arrival fires behind the tick.
TEST(Sharding, BoundaryArrivalsCountInTheWindowTheyOpen) {
  const workload::Trace trace = boundary_trace();
  baselines::ExperimentOptions options;
  options.seed = 11;
  options.drain_slack = 30.0;
  options.platform.record_windows = true;
  std::vector<int> seen;
  std::vector<baselines::ColocatedApp> cell;
  cell.push_back({apps::make_voice_assistant(), &trace, std::make_shared<WindowCountLog>(&seen)});
  const baselines::RunResult r = baselines::run_colocated(std::move(cell), options).front();

  expect_boundary_windows(r.windows, seen);
  EXPECT_EQ(r.submitted, 6);
  EXPECT_EQ(r.completed, 6);
}

/// A bare Platform that is handed every arrival upfront queues the ones at
/// k·w (k >= 2) before their boundary's tick; the Gateway requeues each
/// once at the same instant, behind the tick, so the windows come out the
/// same as on the lane.
TEST(Sharding, UpfrontBoundaryArrivalsAreRequeuedBehindTheTick) {
  const workload::Trace trace = boundary_trace();
  sim::Engine engine;
  cluster::Cluster cluster = cluster::Cluster::paper_testbed();
  Rng rng(11);
  serverless::PlatformOptions popt;
  popt.record_windows = true;
  serverless::Platform platform(engine, cluster, perf::Pricing{}, rng, popt);
  std::vector<int> seen;
  const serverless::AppId id =
      platform.deploy(apps::make_voice_assistant(), std::make_shared<WindowCountLog>(&seen));
  for (const SimTime t : trace.arrivals) platform.submit_request(id, t);
  engine.run_until(36.0);
  platform.finalize(36.0);

  const serverless::AppMetrics& m = platform.metrics(id);
  expect_boundary_windows(m.windows, seen);
  EXPECT_EQ(m.submitted, 6);
  EXPECT_EQ(m.completed.size(), 6u);
}

/// Without telemetry nothing rebinds a policy's audit log: a cell keeps
/// recording into the log its caller attached.
TEST(Sharding, CallerAuditLogSurvivesWithoutTelemetry) {
  const auto& store = runner().profiles(2024);
  exp::ExperimentConfig c;
  c.app = "wl1";
  c.trace.duration = 60.0;
  const apps::App app = exp::resolve_app(c);
  const workload::Trace trace = exp::build_trace(c, app);

  obs::AuditLog audit;
  baselines::PolicySettings settings;
  settings.use_lstm = false;
  settings.pool = runner().policy_pool();
  settings.audit = &audit;
  std::vector<baselines::ColocatedApp> cell;
  cell.push_back(
      {app, &trace, baselines::make_policy(baselines::PolicyKind::Smiless, app, store, settings)});
  baselines::ExperimentOptions options;
  ASSERT_EQ(options.telemetry, nullptr);
  (void)baselines::run_colocated(std::move(cell), options);

  EXPECT_GT(audit.solver_calls(), 0u);
  EXPECT_FALSE(audit.records().empty());
}

/// A driver paces one lane; a cell that populates several refuses it and
/// says how many it populates.
TEST(Sharding, DriverNeedsASinglePopulatedLane) {
  const auto& store = runner().profiles(2024);
  const Deployment dep(30.0);
  std::set<int> populated;
  for (std::size_t g = 0; g < dep.apps.size(); ++g)
    populated.insert(serverless::ShardedPlatform::lane_for(g, 4));
  ASSERT_GT(populated.size(), 1u);

  sim::ImmediateClock clock;
  rt::RealTimeDriver driver(&clock);
  baselines::ExperimentOptions options = sharded_options(nullptr, 4, 1);
  options.driver = &driver;
  try {
    (void)baselines::run_colocated(dep.colocated(store), options);
    FAIL() << "a multi-lane cell accepted a driver";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("populates " + std::to_string(populated.size())),
              std::string::npos)
        << e.what();
  }
}

/// A policy that deploys and never plans: enough to populate lanes.
class Idle final : public serverless::Policy {
 public:
  std::string name() const override { return "idle"; }
  void on_deploy(serverless::AppId, const apps::App&, serverless::PlatformView&) override {}
};

/// lane_threads_used() is the pool that stepped the lanes (capped at the
/// populated lanes), or 1 when they were stepped on the calling thread.
TEST(Sharding, LaneThreadsUsedIsThePoolThatSteppedTheLanes) {
  for (const auto& [lane_threads, expected] :
       {std::pair{1, 1}, std::pair{2, 2}, std::pair{8, 4}}) {
    serverless::ShardOptions so;
    so.lanes = 4;
    so.lane_threads = lane_threads;
    so.machines = 8;
    serverless::ShardedPlatform sharded(so);
    for (int i = 0; i < 16; ++i)
      sharded.add_app(apps::make_synthetic_pipeline(2, 2.0), std::make_shared<Idle>(), {});
    sharded.run(3.0);
    ASSERT_EQ(sharded.populated_lanes(), 4);
    EXPECT_EQ(sharded.lane_threads_used(), expected) << "lane_threads=" << lane_threads;
  }
}

/// The partition itself is a pure function: stable across calls, total over
/// lanes, identity-friendly for K=1.
TEST(Sharding, PartitionIsStableAndTotal) {
  for (std::size_t g = 0; g < 64; ++g) {
    EXPECT_EQ(serverless::ShardedPlatform::lane_for(g, 1), 0);
    for (const int k : {2, 4, 8}) {
      const int lane = serverless::ShardedPlatform::lane_for(g, k);
      EXPECT_GE(lane, 0);
      EXPECT_LT(lane, k);
      EXPECT_EQ(lane, serverless::ShardedPlatform::lane_for(g, k));
    }
  }
}

}  // namespace
