// Cross-commit golden for a genuinely partitioned cell's merged telemetry.
//
// The lane-equivalence suite (sharding_test) compares paths against each
// other inside one build; this test pins what a multi-lane cell exports
// against tests/golden/sharded_telemetry.txt, so a change to the cross-lane
// merge (its (t, lane, per-lane order) rule, the app/machine remap, when it
// runs) or to the online sinks behind it shows up as a hash mismatch. The
// cell mixes catalog and synthetic pipelines over 4 populated lanes with
// faults and the time series on, and runs SMIless (Online Predictor off) on
// some apps so that the audit log is not empty. The apps of lane 0 receive
// a request at every whole second, i.e. exactly at each window barrier:
// those arrivals are injected by the step after the barrier, so their
// events tie on time with what the higher lanes published at the barrier
// itself and must be merged ahead of them — the case that makes the merge
// cut at a barrier strict.
//
// The golden holds the bus size, the audit record count and FNV-1a-64 of the
// merged event stream rendered as NDJSON (the one artifact in bus order, so
// it sees how same-time events of different lanes interleave) and of the
// metrics, series, audit and Perfetto dumps. On a mismatch the test writes
// what it computed to sharded_telemetry.actual in the working directory.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/catalog.hpp"
#include "baselines/experiment.hpp"
#include "common/rng.hpp"
#include "exp/runner.hpp"
#include "obs/stream_sink.hpp"
#include "obs/telemetry.hpp"
#include "serverless/sharding.hpp"
#include "workload/trace.hpp"

namespace smiless {
namespace {

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex;
  os.width(16);
  os.fill('0');
  os << v;
  return os.str();
}

constexpr double kDuration = 180.0;
constexpr double kDrainSlack = 60.0;

/// The golden cell: 12 apps over 4 lanes and 16 machines, faults on
/// (initialisation failures, stragglers, machine crashes, request timeouts),
/// series at a 2 s cadence. Returns the golden file's text.
std::string run_golden_cell(int lane_threads) {
  exp::Runner runner{exp::RunnerOptions{}};
  const baselines::ProfileStore& store = runner.profiles(2024);

  std::vector<apps::App> apps = {apps::make_amber_alert(2.0), apps::make_image_query(2.0),
                                 apps::make_voice_assistant(2.0)};
  for (std::size_t n = 2; n <= 7; ++n) apps.push_back(apps::make_synthetic_pipeline(n, 2.5));
  apps.push_back(apps::make_synthetic_fanout(2, 2, 3.0));
  apps.push_back(apps::make_synthetic_fanout(3, 1, 3.0));
  apps.push_back(apps::make_synthetic_pipeline(3, 1.5));
  std::vector<SimTime> aligned;
  for (int k = 1; k < static_cast<int>(kDuration); ++k)
    aligned.push_back(static_cast<SimTime>(k));

  const baselines::PolicyKind kinds[] = {
      baselines::PolicyKind::Smiless, baselines::PolicyKind::Orion,
      baselines::PolicyKind::GrandSlam, baselines::PolicyKind::IceBreaker};
  const char* presets[] = {"WL1", "WL2", "WL3"};

  obs::Telemetry tel;
  tel.enable_series(2.0);
  serverless::ShardOptions so;
  so.lanes = 4;
  so.lane_threads = lane_threads;
  so.seed = 11;
  so.machines = 16;
  so.faults.init_failure_prob = 0.03;
  so.faults.straggler_prob = 0.02;
  so.faults.crash_rate = 1.0 / 600.0;
  so.faults.mttr = 20.0;
  so.faults.crash_horizon = kDuration;
  so.platform.request_timeout = 20.0;
  so.telemetry = &tel;
  serverless::ShardedPlatform sharded(so);

  Rng root(11);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    Rng child = root.fork(i + 1);
    workload::Trace trace = workload::generate_trace(
        workload::preset_for_workload(presets[i % 3], kDuration), child);
    if (serverless::ShardedPlatform::lane_for(i, so.lanes) == 0) trace.arrivals = aligned;
    baselines::PolicySettings settings;
    settings.use_lstm = false;
    auto policy = baselines::make_policy(kinds[i % 4], apps[i], store, settings);
    sharded.add_app(apps[i], std::move(policy), std::move(trace.arrivals));
  }
  const double end = kDuration + kDrainSlack;
  sharded.run(end);
  tel.finalize_series(end);
  EXPECT_EQ(sharded.populated_lanes(), 4);

  std::ostringstream os;
  os << "events " << tel.bus().size() << '\n';
  os << "audit_records " << tel.audit().records().size() << '\n';
  std::ostringstream ndjson;
  obs::StreamSink sink(&ndjson);
  for (const obs::Event& e : tel.bus().events()) sink.write(e);
  os << "ndjson " << hex(fnv1a64(ndjson.str())) << '\n';
  os << "metrics " << hex(fnv1a64(tel.metrics_json().dump())) << '\n';
  os << "series " << hex(fnv1a64(tel.series_json().dump())) << '\n';
  os << "audit " << hex(fnv1a64(tel.audit_json().dump())) << '\n';
  os << "perfetto " << hex(fnv1a64(tel.perfetto_json().dump())) << '\n';
  return os.str();
}

std::string golden() {
  std::ifstream in(std::string(SMILESS_GOLDEN_DIR) + "/sharded_telemetry.txt");
  std::string line, out;
  while (std::getline(in, line))
    if (!line.empty() && line.front() != '#') out += line + "\n";
  return out;
}

void expect_golden(int lane_threads) {
  const std::string actual = run_golden_cell(lane_threads);
  EXPECT_EQ(actual.find("audit_records 0\n"), std::string::npos)
      << "the golden cell must produce policy decisions";
  const std::string expected = golden();
  if (actual == expected) return;
  std::ofstream("sharded_telemetry.actual") << actual;
  ADD_FAILURE() << "merged telemetry diverges from tests/golden/sharded_telemetry.txt at "
                << "lane_threads=" << lane_threads << "\n  golden:\n"
                << expected << "  actual:\n"
                << actual;
}

TEST(ShardedTelemetryGolden, MatchesAtOneLaneThread) { expect_golden(1); }

TEST(ShardedTelemetryGolden, MatchesAtFourLaneThreads) { expect_golden(4); }

}  // namespace
}  // namespace smiless
