// Tests for the driver seam (sim::Clock / sim::Driver) and the live-serving
// mode behind it (src/rt, exp::serve). The load-bearing contract, from
// DESIGN.md §16: a clock only delays — it never reorders, drops or inserts
// work — so the sim trajectory of a real-time drive is identical to the
// window-barrier DES run of the same config. The equivalence suite here
// holds the driver to that: same request terminal states, same ledger
// totals, same event counts (wall-clock fields excluded — no Event carries
// one).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/catalog.hpp"
#include "baselines/experiment.hpp"
#include "cluster/cluster.hpp"
#include "exp/runner.hpp"
#include "exp/serve.hpp"
#include "obs/event_bus.hpp"
#include "obs/stream_sink.hpp"
#include "obs/telemetry.hpp"
#include "rt/driver.hpp"
#include "rt/wall_clock.hpp"
#include "serverless/arrival_source.hpp"
#include "serverless/platform.hpp"
#include "serverless/platform_view.hpp"
#include "sim/clock.hpp"
#include "sim/engine.hpp"

using namespace smiless;

namespace {

// ---------------------------------------------------------------------------
// ArrivalSource: a lane's WorkSource
// ---------------------------------------------------------------------------

using Admitted = std::vector<std::pair<serverless::AppId, SimTime>>;

/// Keeps every function warm and logs each arrival the Gateway admits.
class ArrivalLog : public serverless::Policy {
 public:
  explicit ArrivalLog(Admitted* seen) : seen_(seen) {}
  std::string name() const override { return "arrival-log"; }
  void on_deploy(serverless::AppId app, const apps::App& spec,
                 serverless::PlatformView& p) override {
    serverless::FunctionPlan plan;
    plan.config = {perf::Backend::Cpu, 4, 0};
    plan.keepalive = serverless::FunctionPlan::forever();
    for (std::size_t n = 0; n < spec.dag.size(); ++n)
      p.set_plan(app, static_cast<dag::NodeId>(n), plan);
  }
  void on_arrival(serverless::AppId app, const apps::App&, serverless::PlatformView&,
                  SimTime now) override {
    seen_->push_back({app, now});
  }

 private:
  Admitted* seen_;
};

/// A bare Platform whose apps' arrivals enter through one ArrivalSource.
struct SourceRig {
  sim::Engine engine;
  cluster::Cluster cluster = cluster::Cluster::paper_testbed();
  Rng rng{5};
  serverless::Platform platform{engine, cluster, perf::Pricing{}, rng};
  serverless::ArrivalSource source{platform};
  Admitted seen;

  void add(std::vector<SimTime> arrivals) {
    const serverless::AppId id =
        platform.deploy(apps::make_voice_assistant(), std::make_shared<ArrivalLog>(&seen));
    source.add(id, std::move(arrivals));
  }
};

TEST(ArrivalSource, MergesStreamsInDueTimeThenAppOrder) {
  SourceRig rig;
  rig.add({1.0, 3.0, 5.0});
  rig.add({2.0, 3.0});

  EXPECT_DOUBLE_EQ(rig.source.next_time(), 1.0);
  rig.source.inject_through(2.5);
  rig.engine.run_until(2.5);
  EXPECT_EQ(rig.seen, (Admitted{{0, 1.0}, {1, 2.0}}));

  // Tie at 3.0: app (deploy) order.
  EXPECT_DOUBLE_EQ(rig.source.next_time(), 3.0);
  rig.source.inject_through(3.0);
  rig.engine.run_until(3.0);
  EXPECT_EQ(rig.seen, (Admitted{{0, 1.0}, {1, 2.0}, {0, 3.0}, {1, 3.0}}));

  rig.source.flush();
  EXPECT_TRUE(std::isinf(rig.source.next_time()));
  rig.engine.run_until(10.0);
  ASSERT_EQ(rig.seen.size(), 5u);
  EXPECT_EQ(rig.seen[4], (std::pair<serverless::AppId, SimTime>{0, 5.0}));
}

TEST(ArrivalSource, BarrierCutHoldsArrivalsAtTheBarrier) {
  SourceRig rig;
  rig.add({0.5, 1.0, 1.5});
  rig.source.inject_before(1.0);  // strict: 1.0 opens the next window
  EXPECT_DOUBLE_EQ(rig.source.next_time(), 1.0);
  rig.source.inject_before(2.0);
  EXPECT_TRUE(std::isinf(rig.source.next_time()));
  rig.engine.run_until(2.0);
  EXPECT_EQ(rig.seen, (Admitted{{0, 0.5}, {0, 1.0}, {0, 1.5}}));
}

// ---------------------------------------------------------------------------
// WallClock
// ---------------------------------------------------------------------------

TEST(WallClock, HighSpeedupWaitsReturnPromptly) {
  rt::WallClock clock(1e9);
  clock.start(0.0);
  EXPECT_TRUE(clock.wait_until(100.0));   // 100 sim-s = 100 wall-ns
  EXPECT_TRUE(clock.wait_until(3600.0));
  EXPECT_EQ(clock.waits(), 2u);
  EXPECT_GE(clock.max_lag_seconds(), 0.0);
  EXPECT_GE(clock.wall_elapsed_seconds(), 0.0);
}

TEST(WallClock, PacesAgainstTheSpeedupFactor) {
  // 1000 sim-seconds per wall-second: 20 sim-s should take >= 20 wall-ms.
  rt::WallClock clock(1000.0);
  clock.start(0.0);
  EXPECT_TRUE(clock.wait_until(20.0));
  EXPECT_GE(clock.wall_elapsed_seconds(), 0.02);
}

TEST(WallClock, RequestStopAbortsTheWait) {
  rt::WallClock clock(1.0);  // natural rate: a 1000 s wait would block forever
  clock.start(0.0);
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    clock.request_stop();
  });
  EXPECT_FALSE(clock.wait_until(1000.0));
  stopper.join();
  EXPECT_TRUE(clock.stop_requested());
}

// ---------------------------------------------------------------------------
// RealTimeDriver vs Engine::run_until on a bare engine
// ---------------------------------------------------------------------------

/// Schedule a deterministic self-extending workload and pump it with
/// `driver`, or with a plain run_until when null; record the firing order.
std::vector<int> run_schedule(sim::Driver* driver) {
  sim::Engine engine;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    engine.schedule_at(static_cast<double>(i), [&fired, &engine, i] {
      fired.push_back(i);
      if (i == 2)  // events spawned mid-run land in the same trajectory
        engine.schedule_after(0.5, [&fired] { fired.push_back(100); });
    });
  }
  if (driver != nullptr) {
    driver->drive(engine, nullptr, 10.0);
  } else {
    engine.run_until(10.0);
  }
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);
  return fired;
}

TEST(Drivers, RealTimeWithImmediateClockMatchesDes) {
  sim::ImmediateClock immediate;
  rt::RealTimeDriver realtime(&immediate);
  EXPECT_EQ(run_schedule(nullptr), run_schedule(&realtime));
  EXPECT_EQ(realtime.stats().batches, 6u);  // 5 instants + the spawned one
  EXPECT_FALSE(realtime.stats().interrupted);
}

TEST(Drivers, RealTimeStreamsASourceNoEarlierThanDue) {
  SourceRig rig;
  rig.add({1.0, 2.5, 4.0});
  sim::ImmediateClock immediate;
  rt::RealTimeDriver driver(&immediate);
  // Gateway::submit rejects an arrival already in the past, so a late
  // injection fails the drive.
  driver.drive(rig.engine, &rig.source, 10.0);
  EXPECT_EQ(rig.seen, (Admitted{{0, 1.0}, {0, 2.5}, {0, 4.0}}));
  EXPECT_DOUBLE_EQ(rig.engine.now(), 10.0);
}

TEST(Drivers, TailFlushSchedulesPostHorizonArrivals) {
  // Arrivals past `end` must still be scheduled (never fired), matching the
  // barrier run's scheduled-event tally.
  SourceRig rig;
  rig.add({1.0, 50.0});
  sim::ImmediateClock immediate;
  rt::RealTimeDriver driver(&immediate);
  driver.drive(rig.engine, &rig.source, 10.0);
  EXPECT_EQ(rig.seen.size(), 1u);
  EXPECT_TRUE(std::isinf(rig.source.next_time()));  // flushed
  rig.engine.run_until(60.0);
  EXPECT_EQ(rig.seen.size(), 2u);  // the flushed arrival was in the queue
}

/// Clock that interrupts after a fixed number of waits — deterministic
/// stand-in for a stop request landing mid-drive. Remembers the last
/// instant it let through and, when it interrupts, how many lines `sink`
/// (if any) had written by then.
class CountdownClock final : public sim::Clock {
 public:
  explicit CountdownClock(int allowed, const obs::StreamSink* sink = nullptr)
      : allowed_(allowed), sink_(sink) {}
  bool wait_until(SimTime t) override {
    if (allowed_-- > 0) {
      last_ = t;
      return true;
    }
    if (sink_ != nullptr) lines_at_stop_ = sink_->lines();
    return false;
  }
  SimTime last() const { return last_; }
  std::uint64_t lines_at_stop() const { return lines_at_stop_; }

 private:
  int allowed_;
  const obs::StreamSink* sink_;
  SimTime last_ = 0.0;
  std::uint64_t lines_at_stop_ = 0;
};

TEST(Drivers, InterruptedDriveStopsWithoutFlushing) {
  SourceRig rig;
  rig.add({1.0, 2.0, 3.0, 4.0});
  CountdownClock clock(2);
  rt::RealTimeDriver driver(&clock);
  driver.drive(rig.engine, &rig.source, 10.0);
  EXPECT_TRUE(driver.stats().interrupted);
  EXPECT_EQ(rig.seen, (Admitted{{0, 1.0}, {0, 2.0}}));
  EXPECT_DOUBLE_EQ(rig.source.next_time(), 3.0);  // no tail flush on interrupt
  EXPECT_DOUBLE_EQ(rig.engine.now(), 2.0);        // stopped at the last fired instant
}

// ---------------------------------------------------------------------------
// DES vs real-time equivalence on a full cell
// ---------------------------------------------------------------------------

exp::ExperimentConfig small_cell() {
  exp::ExperimentConfig config;
  config.platform.record_windows = true;  // fingerprints compare the window samples
  config.app = "wl1";
  config.policy = "smiless";
  config.use_lstm = false;
  config.seed = 7;
  config.trace.duration = 60.0;
  config.trace.seed = 7;
  return config;
}

/// Trajectory fingerprint: every booked aggregate plus each E2E latency, in
/// hexfloat so equality is bitwise.
std::string fingerprint(const baselines::RunResult& r) {
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

std::map<std::string, int> event_counts(const obs::Telemetry& telemetry) {
  std::map<std::string, int> counts;
  for (const auto& e : telemetry.bus().events()) ++counts[obs::event_type_name(e.type)];
  return counts;
}

TEST(ServeEquivalence, RealTimeReplayMatchesTheDesRun) {
  auto config = small_cell();
  config.obs.audit_out = "(in-memory)";  // attach telemetry, write nothing

  exp::Runner runner({/*threads=*/1, /*policy_threads=*/2});
  const auto& store = runner.profiles(config.profile_seed);
  const exp::CellResult des = exp::Runner::run_cell(config, store, runner.policy_pool());

  std::ostringstream stream;
  exp::ServeOptions sopt;
  sopt.speedup = 1e9;  // accelerated replay: live path, negligible wall time
  sopt.stream = &stream;
  const exp::ServeReport live = exp::serve(config, store, runner.policy_pool(), sopt);

  EXPECT_FALSE(live.interrupted);
  EXPECT_GT(live.batches, 0u);
  EXPECT_EQ(live.injected, static_cast<std::uint64_t>(des.result.submitted));
  EXPECT_EQ(fingerprint(live.cell.result), fingerprint(des.result));
  ASSERT_NE(des.telemetry, nullptr);
  ASSERT_NE(live.cell.telemetry, nullptr);
  EXPECT_EQ(event_counts(*live.cell.telemetry), event_counts(*des.telemetry));
  EXPECT_EQ(live.stream_lines, live.cell.telemetry->bus().events().size());
}

TEST(ServeEquivalence, EquivalenceHoldsUnderFaults) {
  auto config = small_cell();
  config.trace.kind = "regular";
  config.trace.interval = 3.0;
  config.trace.jitter = 0.2;
  config.faults.init_failure_prob = 0.05;
  config.platform.request_timeout = 45.0;
  config.platform.max_retries = 2;

  exp::Runner runner({/*threads=*/1, /*policy_threads=*/2});
  const auto& store = runner.profiles(config.profile_seed);
  const exp::CellResult des = exp::Runner::run_cell(config, store, runner.policy_pool());

  exp::ServeOptions sopt;
  sopt.speedup = 1e9;
  const exp::ServeReport live = exp::serve(config, store, runner.policy_pool(), sopt);
  EXPECT_EQ(fingerprint(live.cell.result), fingerprint(des.result));
}

/// A serve cell holds one app, so it populates one lane at any lane count
/// and the stream does not move.
TEST(ServeEquivalence, ServeStreamIsInvariantInLaneCount) {
  exp::Runner runner({/*threads=*/1, /*policy_threads=*/2});
  std::string streams[2];
  std::string fingerprints[2];
  for (const int i : {0, 1}) {
    auto config = small_cell();
    config.lanes = i == 0 ? 1 : 4;
    std::ostringstream stream;
    exp::ServeOptions sopt;
    sopt.speedup = 1e9;
    sopt.stream = &stream;
    const exp::ServeReport live =
        exp::serve(config, runner.profiles(config.profile_seed), runner.policy_pool(), sopt);
    streams[i] = stream.str();
    fingerprints[i] = fingerprint(live.cell.result);
  }
  EXPECT_FALSE(streams[0].empty());
  EXPECT_EQ(streams[0], streams[1]);
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
}

// ---------------------------------------------------------------------------
// NDJSON stream schema
// ---------------------------------------------------------------------------

TEST(StreamSink, RendersOnlyTheFieldsAnEventSet) {
  std::ostringstream out;
  obs::StreamSink sink(&out);
  obs::Event e;
  e.type = obs::EventType::RequestCompleted;
  e.t = 1.5;
  e.t2 = 1.0;
  e.app = 2;
  e.request = 7;
  sink.write(e);
  obs::Event minimal;  // defaults: every optional field suppressed
  minimal.type = obs::EventType::MachineUp;
  minimal.t = 3.0;
  sink.write(minimal);
  EXPECT_EQ(out.str(),
            "{\"type\":\"request_completed\",\"t\":1.5,\"t2\":1.0,\"app\":2,\"request\":7}\n"
            "{\"type\":\"machine_up\",\"t\":3.0}\n");
  EXPECT_EQ(sink.lines(), 2u);
}

TEST(StreamSink, LiveStreamMatchesTheDesEventStream) {
  // Rendering the DES run's retained bus through the sink must produce the
  // same bytes the live stream flushed event-by-event: the stream is a pure
  // function of the trajectory, not of the pacing.
  auto config = small_cell();
  config.obs.audit_out = "(in-memory)";
  exp::Runner runner({/*threads=*/1, /*policy_threads=*/2});
  const auto& store = runner.profiles(config.profile_seed);
  const exp::CellResult des = exp::Runner::run_cell(config, store, runner.policy_pool());

  std::ostringstream live_stream;
  exp::ServeOptions sopt;
  sopt.speedup = 1e9;
  sopt.stream = &live_stream;
  (void)exp::serve(config, store, runner.policy_pool(), sopt);

  std::ostringstream replay;
  obs::StreamSink sink(&replay);
  ASSERT_NE(des.telemetry, nullptr);
  for (const auto& e : des.telemetry->bus().events()) sink.write(e);
  EXPECT_EQ(live_stream.str(), replay.str());
}

/// The stream is live: when a drive is interrupted, the lines of every
/// event that fired are already written, not held back for a merge at the
/// end of the run.
TEST(StreamSink, InterruptedDriveHasStreamedWhatFired) {
  const auto config = small_cell();
  exp::Runner runner({/*threads=*/1, /*policy_threads=*/2});
  const apps::App app = exp::resolve_app(config);
  const workload::Trace trace = exp::build_trace(config, app);
  baselines::PolicySettings settings;
  settings.pool = runner.policy_pool();
  auto policy = baselines::make_policy(baselines::PolicyKind::Orion, app,
                                       runner.profiles(config.profile_seed), settings);

  obs::Telemetry telemetry;
  std::ostringstream out;
  obs::StreamSink sink(&out);
  sink.attach(telemetry.bus());
  CountdownClock clock(40, &sink);
  rt::RealTimeDriver driver(&clock);
  baselines::ExperimentOptions options;
  options.seed = config.seed;
  options.telemetry = &telemetry;
  options.driver = &driver;
  (void)baselines::run_experiment(app, trace, std::move(policy), options);

  ASSERT_TRUE(driver.stats().interrupted);
  std::uint64_t fired = 0;
  for (const auto& e : telemetry.bus().events())
    if (e.t <= clock.last()) ++fired;
  EXPECT_GT(fired, 0u);
  EXPECT_EQ(clock.lines_at_stop(), fired);
}

TEST(StreamSink, GoldenStreamIsByteStable) {
  std::ostringstream stream;
  exp::Runner runner({/*threads=*/1, /*policy_threads=*/2});
  const auto config = small_cell();
  exp::ServeOptions sopt;
  sopt.speedup = 1e9;
  sopt.stream = &stream;
  (void)exp::serve(config, runner.profiles(config.profile_seed), runner.policy_pool(), sopt);

  const std::string golden_path = std::string(SMILESS_GOLDEN_DIR) + "/serve_stream.ndjson";
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden " << golden_path;
  std::ostringstream golden;
  golden << in.rdbuf();
  if (stream.str() != golden.str()) {
    const std::string actual_path = "serve_stream.actual.ndjson";
    std::ofstream(actual_path) << stream.str();
    FAIL() << "NDJSON stream drifted from " << golden_path << "; actual written to ./"
           << actual_path << " — inspect the diff, and update the golden only for an"
           << " intentional schema change.";
  }
}

}  // namespace
