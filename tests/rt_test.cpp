// Tests for the driver seam (sim::Clock / sim::Driver) and the live-serving
// mode behind it (src/rt, exp::serve). The load-bearing contract, from
// DESIGN.md §16: a clock only delays — it never reorders, drops or inserts
// work — so the sim trajectory of a real-time drive is identical to the
// upfront DES run of the same config. The equivalence suite here holds the
// two drivers to that: same request terminal states, same ledger totals,
// same event counts (wall-clock fields excluded — no Event carries one).
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

#include "exp/runner.hpp"
#include "exp/serve.hpp"
#include "obs/event_bus.hpp"
#include "obs/stream_sink.hpp"
#include "obs/telemetry.hpp"
#include "rt/driver.hpp"
#include "rt/replayer.hpp"
#include "rt/wall_clock.hpp"
#include "sim/clock.hpp"
#include "sim/driver.hpp"
#include "sim/engine.hpp"

using namespace smiless;

namespace {

// ---------------------------------------------------------------------------
// TraceReplayer
// ---------------------------------------------------------------------------

TEST(TraceReplayer, MergesStreamsInDueTimeThenRegistrationOrder) {
  const std::vector<SimTime> a = {1.0, 3.0, 5.0};
  const std::vector<SimTime> b = {2.0, 3.0};
  std::vector<std::pair<std::size_t, SimTime>> got;
  rt::TraceReplayer replayer([&](std::size_t slot, SimTime t) { got.push_back({slot, t}); });
  EXPECT_EQ(replayer.add_stream(&a), 0u);
  EXPECT_EQ(replayer.add_stream(&b), 1u);

  EXPECT_DOUBLE_EQ(replayer.next_time(), 1.0);
  replayer.inject_through(2.5);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::pair<std::size_t, SimTime>{0, 1.0}));
  EXPECT_EQ(got[1], (std::pair<std::size_t, SimTime>{1, 2.0}));

  // Tie at 3.0: registration (app) order, mirroring the upfront loop.
  EXPECT_DOUBLE_EQ(replayer.next_time(), 3.0);
  replayer.inject_through(3.0);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[2].first, 0u);
  EXPECT_EQ(got[3].first, 1u);

  replayer.flush();
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[4], (std::pair<std::size_t, SimTime>{0, 5.0}));
  EXPECT_EQ(replayer.injected(), 5u);
  EXPECT_TRUE(std::isinf(replayer.next_time()));
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
// RealTimeDriver vs DesDriver on a bare engine
// ---------------------------------------------------------------------------

/// Schedule a deterministic self-extending workload; record the firing order.
std::vector<int> run_schedule(sim::Driver& driver, sim::WorkSource* source = nullptr) {
  sim::Engine engine;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    engine.schedule_at(static_cast<double>(i), [&fired, &engine, i] {
      fired.push_back(i);
      if (i == 2)  // events spawned mid-run land in the same trajectory
        engine.schedule_after(0.5, [&fired] { fired.push_back(100); });
    });
  }
  driver.drive(engine, source, 10.0);
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);
  return fired;
}

TEST(Drivers, RealTimeWithImmediateClockMatchesDes) {
  sim::DesDriver des;
  sim::ImmediateClock immediate;
  rt::RealTimeDriver realtime(&immediate);
  EXPECT_EQ(run_schedule(des), run_schedule(realtime));
  EXPECT_EQ(realtime.stats().batches, 6u);  // 5 instants + the spawned one
  EXPECT_FALSE(realtime.stats().interrupted);
}

TEST(Drivers, RealTimeStreamsASourceNoEarlierThanDue) {
  sim::Engine engine;
  std::vector<SimTime> arrivals = {1.0, 2.5, 4.0};
  std::vector<SimTime> seen;  // engine.now() at each injection
  rt::TraceReplayer replayer([&](std::size_t, SimTime t) {
    // The driver must not have advanced past the arrival when it injects.
    EXPECT_LE(engine.now(), t);
    engine.schedule_at(t, [&seen, t] { seen.push_back(t); });
  });
  replayer.add_stream(&arrivals);
  sim::ImmediateClock immediate;
  rt::RealTimeDriver driver(&immediate);
  driver.drive(engine, &replayer, 10.0);
  EXPECT_EQ(seen, arrivals);
  EXPECT_EQ(replayer.injected(), 3u);
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);
}

TEST(Drivers, TailFlushSchedulesPostHorizonArrivals) {
  // Arrivals past `end` must still be scheduled (never fired), matching the
  // upfront run's scheduled-event tally.
  sim::Engine engine;
  std::vector<SimTime> arrivals = {1.0, 50.0};
  int fired = 0;
  rt::TraceReplayer replayer([&](std::size_t, SimTime t) {
    engine.schedule_at(t, [&fired] { ++fired; });
  });
  replayer.add_stream(&arrivals);
  sim::ImmediateClock immediate;
  rt::RealTimeDriver driver(&immediate);
  driver.drive(engine, &replayer, 10.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(replayer.injected(), 2u);
  EXPECT_EQ(engine.stats().scheduled, 2u);
}

/// Clock that interrupts after a fixed number of waits — deterministic
/// stand-in for a stop request landing mid-drive.
class CountdownClock final : public sim::Clock {
 public:
  explicit CountdownClock(int allowed) : allowed_(allowed) {}
  bool wait_until(SimTime) override { return allowed_-- > 0; }

 private:
  int allowed_;
};

TEST(Drivers, InterruptedDriveStopsWithoutFlushing) {
  sim::Engine engine;
  std::vector<SimTime> arrivals = {1.0, 2.0, 3.0, 4.0};
  int injected_fired = 0;
  rt::TraceReplayer replayer([&](std::size_t, SimTime t) {
    engine.schedule_at(t, [&injected_fired] { ++injected_fired; });
  });
  replayer.add_stream(&arrivals);
  CountdownClock clock(2);
  rt::RealTimeDriver driver(&clock);
  driver.drive(engine, &replayer, 10.0);
  EXPECT_TRUE(driver.stats().interrupted);
  EXPECT_EQ(injected_fired, 2);
  EXPECT_EQ(replayer.injected(), 2u);   // no tail flush on interrupt
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);  // stopped at the last fired instant
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

TEST(ServeEquivalence, ServeRejectsShardedConfigs) {
  auto config = small_cell();
  config.lanes = 4;
  exp::Runner runner({/*threads=*/1, /*policy_threads=*/2});
  EXPECT_THROW(
      exp::serve(config, runner.profiles(config.profile_seed), runner.policy_pool(), {}),
      std::runtime_error);
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
