// Satellite of the failure-model work: end-to-end determinism replay. Every
// policy, run twice from the same seed — with faults off and with a fixed
// fault cocktail on — must produce bit-identical metrics summaries. The
// summary string uses hexfloat so no rounding can mask a divergence.
#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>

#include "apps/catalog.hpp"
#include "baselines/experiment.hpp"
#include "workload/trace.hpp"

namespace smiless {
namespace {

const baselines::ProfileStore& store() {
  static Rng rng(2024);
  // detlint:allow(global-state) fixed-seed fixture built once; tests only read it
  static baselines::ProfileStore s{profiler::OfflineProfiler{}, rng};
  return s;
}

/// Every observable of a run, rendered exactly.
std::string summarize(const baselines::RunResult& r) {
  std::ostringstream os;
  os << std::hexfloat;
  os << r.policy << '|' << r.cost << '|' << r.violation_ratio << '|' << r.submitted << '|'
     << r.completed << '|' << r.failed << '|' << r.invocations << '|' << r.initializations
     << '|' << r.init_failures << '|' << r.evictions << '|' << r.retries << '|' << r.timeouts
     << '|' << r.cpu_core_seconds << '|' << r.gpu_pct_seconds;
  for (const double e : r.e2e) os << ';' << e;
  for (const auto& w : r.windows)
    os << '#' << w.arrivals << ',' << w.instances_cpu << ',' << w.instances_gpu;
  return os.str();
}

baselines::RunResult run_once(baselines::PolicyKind kind, const apps::App& app,
                              const workload::Trace& trace, const faults::FaultSpec& spec) {
  baselines::PolicySettings settings;
  settings.use_lstm = false;  // deterministic and fast
  settings.oracle_trace = &trace;
  baselines::ExperimentOptions options;
  options.seed = 4242;
  options.faults = spec;
  options.platform.request_timeout = 90.0;
  options.platform.record_windows = true;  // the summary covers the window samples
  return baselines::run_experiment(
      app, trace, baselines::make_policy(kind, app, store(), settings), options);
}

class DeterminismReplay : public ::testing::TestWithParam<baselines::PolicyKind> {};

TEST_P(DeterminismReplay, SameSeedSameSummaryWithAndWithoutFaults) {
  const auto app = apps::make_voice_assistant();
  Rng trace_rng(7);
  const auto trace =
      workload::generate_trace(workload::preset_for_workload(app.name, 90.0), trace_rng);

  faults::FaultSpec clean;
  faults::FaultSpec faulty;
  faulty.init_failure_prob = 0.1;
  faulty.straggler_prob = 0.05;
  faulty.straggler_factor = 3.0;
  faulty.crashes.push_back({/*machine=*/0, /*at=*/30.0, /*duration=*/20.0});

  for (const faults::FaultSpec* spec : {&clean, &faulty}) {
    const auto first = summarize(run_once(GetParam(), app, trace, *spec));
    const auto second = summarize(run_once(GetParam(), app, trace, *spec));
    EXPECT_EQ(first, second) << (spec->any() ? "with faults" : "fault-free");
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, DeterminismReplay,
    ::testing::Values(baselines::PolicyKind::Smiless, baselines::PolicyKind::SmilessHomo,
                      baselines::PolicyKind::SmilessNoDag, baselines::PolicyKind::Opt,
                      baselines::PolicyKind::Orion, baselines::PolicyKind::IceBreaker,
                      baselines::PolicyKind::GrandSlam, baselines::PolicyKind::Aquatope),
    [](const auto& info) {
      std::string name = baselines::policy_kind_name(info.param);
      std::string out;
      for (const char c : name)
        if (std::isalnum(static_cast<unsigned char>(c))) out += c;
      return out;
    });

}  // namespace
}  // namespace smiless
