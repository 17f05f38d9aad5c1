// Lane-equivalence suite for intra-cell sharding (DESIGN.md §14).
//
// The contracts under test, all byte-level:
//  - run_sharded with one lane reproduces the monolithic run_colocated
//    trajectory exactly (streaming arrival injection included);
//  - a single-app cell is invariant in the lane count K (the lone populated
//    lane inherits the whole cluster and the unmixed seed), across policies,
//    seeds, and with fault injection + observability on;
//  - a multi-app sharded cell is invariant in lane_threads (parallelism is
//    wall-clock only).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/catalog.hpp"
#include "baselines/experiment.hpp"
#include "exp/config.hpp"
#include "exp/runner.hpp"
#include "obs/telemetry.hpp"
#include "serverless/platform_view.hpp"
#include "serverless/sharding.hpp"
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

/// run_sharded with a single lane must replay run_colocated byte-for-byte —
/// this is what licenses the lanes>1 dispatch inside run_colocated.
TEST(Sharding, SingleLaneReproducesMonolithicColocatedRun) {
  const auto& store = runner().profiles(2024);
  const Deployment dep(90.0);

  obs::Telemetry mono_tel;
  const auto mono =
      baselines::run_colocated(dep.colocated(store), sharded_options(&mono_tel, 1, 0));

  obs::Telemetry lane_tel;
  const auto sharded =
      baselines::run_sharded(dep.colocated(store), sharded_options(&lane_tel, 1, 0));

  ASSERT_EQ(mono.size(), sharded.size());
  for (std::size_t i = 0; i < mono.size(); ++i) {
    SCOPED_TRACE("app " + mono[i].app);
    expect_same_result(mono[i], sharded[i]);
  }
  expect_same_telemetry(mono_tel, lane_tel);
}

/// A genuinely partitioned cell (4 apps over 4 lanes) must not care how many
/// threads step the lanes.
TEST(Sharding, MultiAppShardIsInvariantInLaneThreads) {
  const auto& store = runner().profiles(2024);
  const Deployment dep(90.0);

  obs::Telemetry serial_tel;
  const auto serial =
      baselines::run_sharded(dep.colocated(store), sharded_options(&serial_tel, 4, 1));

  for (const int lane_threads : {2, 4}) {
    obs::Telemetry tel;
    const auto parallel =
        baselines::run_sharded(dep.colocated(store), sharded_options(&tel, 4, lane_threads));
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

/// Arrivals at exactly a window boundary belong to the window the boundary
/// opens, [k, k+1), on both paths. The monolithic path queues every arrival
/// before the ticks after the first, the sharded path injects them after the
/// tick, so this trace used to split into 1,2,1,1,1,0 (monolithic) and
/// 1,1,1,2,0,1 (sharded).
TEST(Sharding, BoundaryArrivalsCountInTheWindowTheyOpen) {
  workload::Trace trace;
  trace.window = 1.0;
  trace.arrivals = {0.5, 1.0, 2.0, 3.0, 3.5, 5.0};
  trace.counts = {1, 1, 1, 2, 0, 1};
  const std::vector<int> expected = {1, 1, 1, 2, 0, 1};

  baselines::ExperimentOptions options;
  options.seed = 11;
  options.drain_slack = 30.0;
  options.platform.record_windows = true;
  const auto run = [&](bool sharded, std::vector<int>* seen) {
    std::vector<baselines::ColocatedApp> cell;
    cell.push_back({apps::make_voice_assistant(), &trace, std::make_shared<WindowCountLog>(seen)});
    return sharded ? baselines::run_sharded(std::move(cell), options).front()
                   : baselines::run_colocated(std::move(cell), options).front();
  };
  std::vector<int> mono_seen, lane_seen;
  const auto mono = run(false, &mono_seen);
  const auto lane = run(true, &lane_seen);

  expect_same_result(mono, lane);
  EXPECT_EQ(mono_seen, lane_seen);
  ASSERT_GE(mono.windows.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    SCOPED_TRACE("window " + std::to_string(k));
    EXPECT_EQ(mono.windows[k].window_start, static_cast<double>(k));
    EXPECT_EQ(mono.windows[k].arrivals, expected[k]);
    EXPECT_EQ(mono_seen[k], expected[k]);
  }
  EXPECT_EQ(mono.submitted, 6);
  EXPECT_EQ(mono.completed, 6);
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
