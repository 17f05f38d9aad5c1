#include <gtest/gtest.h>

#include "apps/catalog.hpp"
#include "baselines/experiment.hpp"
#include "core/smiless_policy.hpp"
#include "math/stats.hpp"

namespace smiless {
namespace {

using baselines::ExperimentOptions;
using baselines::make_policy;
using baselines::PolicyKind;
using baselines::PolicySettings;
using baselines::ProfileStore;
using baselines::run_experiment;

ProfileStore& store() {
  static Rng rng(202);
  // detlint:allow(global-state) fixed-seed fixture built once; tests only read it
  static ProfileStore s{profiler::OfflineProfiler{}, rng};
  return s;
}

workload::Trace trace_for(const apps::App& app, std::uint64_t seed, double duration) {
  Rng rng(seed);
  auto o = workload::preset_for_workload(app.name, duration);
  return workload::generate_trace(o, rng);
}

ExperimentOptions fast_options() {
  ExperimentOptions o;
  o.drain_slack = 60.0;
  o.platform.record_windows = true;  // burst and alignment checks read the samples
  return o;
}

PolicySettings no_lstm() {
  PolicySettings s;
  s.use_lstm = false;  // keep the integration suite fast
  return s;
}

TEST(Integration, SmilessServesAllWorkloadsWithinSla) {
  for (const auto& app : apps::make_all_workloads(2.0)) {
    const auto trace = trace_for(app, 31, 240.0);
    const auto r = run_experiment(app, trace,
                                  make_policy(PolicyKind::Smiless, app, store(), no_lstm()),
                                  fast_options());
    EXPECT_EQ(r.completed, r.submitted) << app.name;
    // The paper reports zero violations on Azure traces whose bursts its
    // LSTM anticipates. Our synthetic bursts start at Poisson-random times
    // — unpredictable one window ahead by construction — so reactive
    // scale-out pays one cold-start window per burst. The tail this leaves
    // stays far below the 40%+ of the cold-start-oblivious baselines.
    EXPECT_LT(r.violation_ratio, 0.16) << app.name;
    EXPECT_GT(r.cost, 0.0) << app.name;
  }
}

TEST(Integration, SmilessBeatsIceBreakerOnCost) {
  // Fig. 8a's headline: SMIless is multiples cheaper than IceBreaker.
  const auto app = apps::make_voice_assistant();
  const auto trace = trace_for(app, 32, 300.0);
  const auto sm = run_experiment(app, trace,
                                 make_policy(PolicyKind::Smiless, app, store(), no_lstm()),
                                 fast_options());
  const auto ib = run_experiment(app, trace,
                                 make_policy(PolicyKind::IceBreaker, app, store(), no_lstm()),
                                 fast_options());
  EXPECT_LT(sm.cost, ib.cost);
}

TEST(Integration, SmilessCheaperThanGrandSlam) {
  const auto app = apps::make_image_query();
  const auto trace = trace_for(app, 33, 300.0);
  const auto sm = run_experiment(app, trace,
                                 make_policy(PolicyKind::Smiless, app, store(), no_lstm()),
                                 fast_options());
  const auto gs = run_experiment(app, trace,
                                 make_policy(PolicyKind::GrandSlam, app, store(), no_lstm()),
                                 fast_options());
  EXPECT_LT(sm.cost, gs.cost);
}

TEST(Integration, OptNoMoreExpensiveThanSmiless) {
  const auto app = apps::make_voice_assistant();
  const auto trace = trace_for(app, 34, 240.0);
  auto s = no_lstm();
  s.oracle_trace = &trace;
  const auto sm = run_experiment(app, trace,
                                 make_policy(PolicyKind::Smiless, app, store(), s),
                                 fast_options());
  const auto opt = run_experiment(app, trace, make_policy(PolicyKind::Opt, app, store(), s),
                                  fast_options());
  // Oracle knowledge plus exhaustive search should not lose; tolerate a
  // small margin for simulator noise. The oracle sees arrival times but
  // instances still initialise cold at burst onsets, so a thin violation
  // tail remains.
  EXPECT_LT(opt.cost, sm.cost * 1.15);
  EXPECT_LE(opt.violation_ratio, sm.violation_ratio + 0.05);
  EXPECT_LT(opt.violation_ratio, 0.12);
}

TEST(Integration, NoDagAblationCostsMoreWhenPrewarming) {
  // Fig. 13a: ignoring DAG offsets warms instances too early and wastes
  // billed idle time. Pre-warm mode needs sparse arrivals to engage, so the
  // ablation is measured on a ~10 s mean inter-arrival trace.
  const auto app = apps::make_amber_alert();
  Rng rng(35);
  const auto trace = workload::generate_regular_trace(10.0, 0.05, 400.0, rng);
  const auto sm = run_experiment(app, trace,
                                 make_policy(PolicyKind::Smiless, app, store(), no_lstm()),
                                 fast_options());
  const auto nd = run_experiment(app, trace,
                                 make_policy(PolicyKind::SmilessNoDag, app, store(), no_lstm()),
                                 fast_options());
  EXPECT_GT(nd.cost, sm.cost * 1.02);
}

TEST(Integration, DeterministicAcrossRuns) {
  const auto app = apps::make_voice_assistant();
  const auto trace = trace_for(app, 36, 120.0);
  const auto a = run_experiment(app, trace,
                                make_policy(PolicyKind::Smiless, app, store(), no_lstm()),
                                fast_options());
  const auto b = run_experiment(app, trace,
                                make_policy(PolicyKind::Smiless, app, store(), no_lstm()),
                                fast_options());
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
  EXPECT_EQ(a.e2e.size(), b.e2e.size());
  for (std::size_t i = 0; i < a.e2e.size(); ++i) EXPECT_DOUBLE_EQ(a.e2e[i], b.e2e[i]);
}

TEST(Integration, BurstTraceTriggersScaleOut) {
  const auto app = apps::make_voice_assistant();
  Rng rng(37);
  const auto trace = workload::generate_burst_window(0.5, 12.0, rng);
  const auto r = run_experiment(app, trace,
                                make_policy(PolicyKind::Smiless, app, store(), no_lstm()),
                                fast_options());
  EXPECT_EQ(r.completed, r.submitted);
  // During the burst the platform must have run several instances at once.
  int max_instances = 0;
  for (const auto& w : r.windows) max_instances = std::max(max_instances, w.instances_total);
  EXPECT_GT(max_instances, static_cast<int>(app.dag.size()));
  // Batching should keep violations bounded even at 12 rps.
  EXPECT_LT(r.violation_ratio, 0.35);
}

TEST(Integration, WindowSeriesAlignsWithTrace) {
  const auto app = apps::make_voice_assistant();
  const auto trace = trace_for(app, 38, 90.0);
  const auto r = run_experiment(app, trace,
                                make_policy(PolicyKind::GrandSlam, app, store(), no_lstm()),
                                fast_options());
  ASSERT_GE(r.windows.size(), trace.counts.size());
  long total = 0;
  for (const auto& w : r.windows) total += w.arrivals;
  EXPECT_EQ(total, r.submitted);
}

TEST(Integration, CostsScaleWithTraceLength) {
  const auto app = apps::make_voice_assistant();
  const auto short_trace = trace_for(app, 39, 120.0);
  const auto long_trace = trace_for(app, 39, 360.0);
  const auto a = run_experiment(app, short_trace,
                                make_policy(PolicyKind::GrandSlam, app, store(), no_lstm()),
                                fast_options());
  const auto b = run_experiment(app, long_trace,
                                make_policy(PolicyKind::GrandSlam, app, store(), no_lstm()),
                                fast_options());
  EXPECT_GT(b.cost, a.cost * 1.5);  // GrandSLAm's cost is mostly duration-driven
}

TEST(Integration, ColocatedDeploymentSharesOneCluster) {
  // The paper's §VII-A setup: every workload on the same 8-machine cluster
  // with its own load generator.
  const auto workloads = apps::make_all_workloads(2.0);
  std::vector<workload::Trace> traces;
  for (const auto& app : workloads) traces.push_back(trace_for(app, 40, 180.0));
  std::vector<baselines::ColocatedApp> deployment;
  for (std::size_t i = 0; i < workloads.size(); ++i)
    deployment.push_back({workloads[i], &traces[i],
                          make_policy(PolicyKind::Smiless, workloads[i], store(), no_lstm())});
  const auto results = baselines::run_colocated(std::move(deployment), fast_options());
  ASSERT_EQ(results.size(), workloads.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].app, workloads[i].name);
    EXPECT_EQ(results[i].completed, results[i].submitted) << workloads[i].name;
    EXPECT_GT(results[i].cost, 0.0);
  }
}

TEST(Integration, ColocatedMatchesIsolatedWhenUncontended) {
  // With light load the shared cluster never saturates, so co-located and
  // isolated runs of the same (app, trace, policy) agree on the outcome
  // counts (costs differ only through RNG stream interleaving).
  const auto app = apps::make_voice_assistant();
  const auto trace = trace_for(app, 41, 120.0);
  const auto isolated = run_experiment(app, trace,
                                       make_policy(PolicyKind::GrandSlam, app, store(), no_lstm()),
                                       fast_options());
  std::vector<baselines::ColocatedApp> deployment;
  deployment.push_back({app, &trace,
                        make_policy(PolicyKind::GrandSlam, app, store(), no_lstm())});
  const auto co = baselines::run_colocated(std::move(deployment), fast_options());
  ASSERT_EQ(co.size(), 1u);
  EXPECT_EQ(co[0].submitted, isolated.submitted);
  EXPECT_EQ(co[0].completed, isolated.completed);
  EXPECT_EQ(co[0].initializations, isolated.initializations);
  EXPECT_NEAR(co[0].cost, isolated.cost, 0.05 * isolated.cost);
}

TEST(Integration, GoldenSeedScenarioPinned) {
  // Golden regression: the headline numbers of one pinned (seed, app,
  // policy) scenario. Any change to dispatch order, RNG consumption,
  // billing or retry timing moves these; update them only for intentional
  // semantic changes. Counts are exact; continuous metrics get a 0.5%
  // tolerance for toolchain-dependent libstdc++ distribution details.
  const auto app = apps::make_voice_assistant();
  const auto trace = trace_for(app, 42, 180.0);
  const auto r = run_experiment(app, trace,
                                make_policy(PolicyKind::Smiless, app, store(), no_lstm()),
                                fast_options());
  // Values measured at the commit introducing this test; identical to the
  // pre-fault-layer seed build, confirming the disabled fault path changes
  // nothing.
  EXPECT_EQ(r.submitted, 92);
  EXPECT_EQ(r.completed, 92);
  EXPECT_EQ(r.failed, 0);
  EXPECT_EQ(r.initializations, 45);
  EXPECT_NEAR(r.cost, 0.0439123, 0.005 * 0.0439123);
  EXPECT_NEAR(math::percentile(r.e2e, 99), 3.53968, 0.005 * 3.53968);
}

TEST(Integration, SmilessSurvivesFaultsWithHighGoodput) {
  // Acceptance scenario for the failure model: 5% init failures plus one
  // 45 s machine outage mid-run must not cost SMIless more than 1% of its
  // requests.
  const auto app = apps::make_voice_assistant();
  const auto trace = trace_for(app, 43, 240.0);
  auto options = fast_options();
  options.faults.init_failure_prob = 0.05;
  options.faults.crashes.push_back({/*machine=*/0, /*at=*/80.0, /*duration=*/45.0});
  options.platform.request_timeout = 90.0;
  const auto r = run_experiment(app, trace,
                                make_policy(PolicyKind::Smiless, app, store(), no_lstm()),
                                options);
  EXPECT_GE(r.goodput(), 0.99) << "failed=" << r.failed << " submitted=" << r.submitted;
  EXPECT_GT(r.init_failures, 0);  // the faults actually fired
}

}  // namespace
}  // namespace smiless
