// Simulator throughput yardstick: one large colocated cell — hundreds of
// machines, thousands of DAG applications, a multi-hour Poisson + burst
// trace per app — run on ShardedPlatform lanes (the one cell executor) at
// lanes 1/2/4/8, plus a pure-queue hold-model microbench that drives the
// calendar queue and its binary-heap + std::map reference directly, to
// isolate the data structure from platform work. Records events/s,
// requests/s, wall-time spread, peak RSS, EngineStats, CalendarStats, lane
// balance and a per-structure memory breakdown into BENCH_throughput.json
// (see DESIGN.md §13–14).
//
// Each lane count runs kRepeats timed repeats with the self-profiler
// detached (the headline: median, min and max wall time), then one profiled
// run that supplies the profile section, the parallel efficiency and the
// lane imbalance. Correctness gate: every repeat and the profiled run of a
// lane count must produce identical event and request counts, or the bench
// exits 1. (Each lane count partitions the fleet differently, so counts are
// compared within a lane count, not across.) The lanes=1 counts are the
// artifact's `deterministic` section.
//
// Timing and RSS are measurements of the harness itself, not simulated
// behaviour; the trajectory counts in the artifact are byte-stable for a
// given config, the measured sections are not. Every run and every
// microbench runs in a forked child process: ru_maxrss is a
// process-lifetime high-water mark, and a multi-GB run leaves the parent
// allocator's arena grown and fragmented — without isolation each
// measurement inherits its predecessors' heap and both RSS and events/s
// become artifacts of run *order* rather than of the configuration.
//
// Knobs: --apps N --machines N --nodes N --events N (positive integers)
// --out PATH (--duration / --lane-threads are shared bench flags, like
// every bench binary). A re-run keeps the `history` entries of the
// artifact it overwrites.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "apps/catalog.hpp"
#include "bench/bench_common.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "prof/profiler.hpp"
#include "serverless/plan.hpp"
#include "serverless/platform_view.hpp"
#include "serverless/policy.hpp"
#include "serverless/sharding.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/reference_queue.hpp"
#include "workload/trace.hpp"

using namespace smiless;

namespace {

/// Timed repeats per lane count (the profiled run comes on top).
constexpr int kRepeats = 3;

// getrusage's ru_maxrss is the process-lifetime high-water mark (KiB on
// Linux); not in the detlint catalog because it cannot order or time
// anything simulated.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double now_seconds() {
  // detlint:allow(wall-clock) harness throughput measurement; stays out of the simulation
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(t).count();
}

/// Run `fn` in a forked child and ship its trivially-copyable result back
/// over a pipe, so each measurement starts from a pristine heap and its
/// ru_maxrss describes only that configuration. The simulation itself is
/// deterministic either way — isolation only de-noises the measured
/// sections. Falls back to in-process execution if fork is unavailable.
template <typename R, typename Fn>
R run_isolated(Fn&& fn) {
  static_assert(std::is_trivially_copyable_v<R>);
  int fds[2];
  if (pipe(fds) != 0) return fn();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return fn();
  }
  if (pid == 0) {
    close(fds[0]);
    const R r = fn();
    const char* p = reinterpret_cast<const char*>(&r);
    std::size_t left = sizeof(R);
    while (left > 0) {
      const ssize_t n = write(fds[1], p, left);
      if (n <= 0) _exit(3);
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  R r{};
  char* p = reinterpret_cast<char*>(&r);
  std::size_t got = 0;
  while (got < sizeof(R)) {
    const ssize_t n = read(fds[0], p + got, sizeof(R) - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != sizeof(R) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "bench_throughput: isolated child failed (status %d)\n", status);
    std::exit(1);
  }
  return r;
}

struct CellConfig {
  std::size_t apps = 1500;
  std::size_t machines = 320;
  std::size_t nodes_per_app = 3;
  double duration = 1800.0;
  std::uint64_t seed = 42;
};

/// Always-warm policy with a finite keep-alive: enough lifecycle churn to
/// exercise the cancel/tombstone path (keep-alive timers are cancelled on
/// every reuse) without the full SMIless optimizer dominating the profile.
class KeepWarmPolicy final : public serverless::Policy {
 public:
  std::string name() const override { return "bench-keepwarm"; }
  void on_deploy(serverless::AppId app, const apps::App& spec,
                 serverless::PlatformView& platform) override {
    for (std::size_t n = 0; n < spec.dag.size(); ++n) {
      serverless::FunctionPlan plan;
      plan.keepalive = 60.0;
      plan.max_batch = 4;
      platform.set_plan(app, static_cast<dag::NodeId>(n), plan);
    }
  }
};

/// One run of the cell. The profile fields are filled by profiled runs only.
struct CellRun {
  std::uint64_t scheduled = 0;
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  long long submitted = 0;
  long long completed = 0;
  double wall_seconds = 0.0;      ///< deploy + run + results, the headline
  double run_call_seconds = 0.0;  ///< ShardedPlatform::run alone
  double peak_rss_mb = 0.0;
  int lane_threads = 1;  ///< threads that stepped the lanes
  sim::CalendarStats cal;
  prof::Snapshot profile;
  double lane_busy_ms = 0.0;       ///< Σ LaneStep over lanes
  double lane_busy_peak_ms = 0.0;  ///< max LaneStep of one lane
  int lanes_profiled = 0;
  // Footprints of the structures that grow with the request count, from
  // container sizes and capacities (identical on every run of a lane count).
  serverless::TrackerMemory tracker;
  std::uint64_t completed_bytes = 0;  ///< AppMetrics::completed records
  std::uint64_t billing_bytes = 0;    ///< the ledgers' BillingRecords
  std::uint64_t arrival_bytes = 0;    ///< the bench's traces + each lane's copy

  /// The trajectory's counts: scheduled/fired/cancelled events, completed
  /// requests.
  std::string counts() const {
    return std::to_string(scheduled) + "/" + std::to_string(fired) + "/" +
           std::to_string(cancelled) + "/" + std::to_string(completed);
  }
};

/// The cell on ShardedPlatform: apps hash-partitioned into lanes, arrivals
/// injected per window barrier. With `profiled` the self-profiler rides
/// along; otherwise the run is timed bare.
CellRun run_sharded(int lanes, int lane_threads, bool profiled, const CellConfig& cc,
                    const std::vector<workload::Trace>& traces) {
  const double t0 = now_seconds();

  prof::Profiler profiler;
  prof::Profiler* prof = profiled ? &profiler : nullptr;
  serverless::ShardOptions so;
  so.lanes = lanes;
  so.lane_threads = lane_threads;
  so.seed = cc.seed;
  so.machines = cc.machines;
  so.prof = prof;
  serverless::ShardedPlatform sharded(std::move(so));

  double horizon = 0.0;
  CellRun r;
  {
    // Root scope: every instrumented site nests under it, so a serially
    // stepped cell's exclusive times sum to this bracket exactly.
    prof::ScopeTimer root(prof, prof::Site::CellRun);
    for (std::size_t i = 0; i < cc.apps; ++i) {
      apps::App app = apps::make_synthetic_pipeline(cc.nodes_per_app, /*sla=*/2.0);
      sharded.add_app(std::move(app), std::make_shared<KeepWarmPolicy>(),
                      traces[i].arrivals);
      r.submitted += static_cast<long long>(traces[i].arrivals.size());
      r.arrival_bytes += (traces[i].arrivals.capacity() + traces[i].arrivals.size()) *
                         sizeof(SimTime);
      horizon = std::max(horizon,
                         static_cast<double>(traces[i].counts.size()) * traces[i].window);
    }
    const double t_run = now_seconds();
    sharded.run(horizon + 120.0);
    r.run_call_seconds = now_seconds() - t_run;
    for (std::size_t i = 0; i < cc.apps; ++i) {
      const auto& completed = sharded.metrics(static_cast<int>(i)).completed;
      r.completed += static_cast<long long>(completed.size());
      r.completed_bytes += completed.size() * sizeof(serverless::RequestRecord);
      r.billing_bytes += sharded.billing(static_cast<int>(i)).size() *
                         sizeof(serverless::Ledger::BillingRecord);
    }
    r.tracker = sharded.tracker_memory();
  }

  r.wall_seconds = now_seconds() - t0;
  r.peak_rss_mb = peak_rss_mb();
  const sim::EngineStats stats = sharded.engine_stats();
  r.scheduled = stats.scheduled;
  r.fired = stats.fired;
  r.cancelled = stats.cancelled;
  r.cal = sharded.calendar_stats();
  r.lane_threads = sharded.lane_threads_used();
  if (profiled) {
    r.profile = profiler.snapshot();
    for (const auto& lane : profiler.lanes()) {
      const double busy =
          static_cast<double>(
              lane.sites[static_cast<std::size_t>(prof::Site::LaneStep)].inclusive_ns) /
          kNanosPerMilli;
      r.lane_busy_ms += busy;
      r.lane_busy_peak_ms = std::max(r.lane_busy_peak_ms, busy);
      ++r.lanes_profiled;
    }
  }
  return r;
}

/// Classic hold-model microbench: keep `live` events pending, repeatedly
/// pop the earliest and schedule a replacement at now + exp(1). Drives the
/// queue directly (a local clock and id counter stand in for the Engine),
/// which isolates schedule/pop/cancel cost from platform callback work;
/// with thousands pending this is where the heap pays its O(log n) and its
/// two map allocations per event.
struct Micro {
  std::uint64_t events = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
};

template <class Queue>
Micro run_micro(std::uint64_t total_events, std::size_t live, std::uint64_t seed) {
  Queue queue;
  Rng rng(seed);
  SimTime now = 0.0;
  sim::EventId next_id = 1;
  std::uint64_t holds = 0;
  std::vector<sim::EventId> cancellable;
  const auto schedule_after = [&](double delay, std::function<void()> cb) {
    const sim::EventId id = next_id++;
    queue.schedule(now + delay, id, std::move(cb));
    return id;
  };

  std::function<void()> hold = [&] {
    ++holds;
    if (holds + cancellable.size() < total_events) {
      schedule_after(rng.exponential(1.0), hold);
      // A slice of events is scheduled and later cancelled, as keep-alive
      // timers are in the end-to-end cell.
      if ((holds & 7u) == 0u)
        cancellable.push_back(schedule_after(rng.uniform(1.0, 30.0), [] {}));
      if (cancellable.size() >= 64) {
        for (sim::EventId id : cancellable) queue.cancel(id);
        cancellable.clear();
      }
    }
  };

  const double t0 = now_seconds();
  for (std::size_t i = 0; i < live; ++i) schedule_after(rng.exponential(1.0), hold);
  Micro m;
  SimTime t = 0.0;
  sim::EventId id = 0;
  std::function<void()> cb;
  while (queue.pop_due(std::numeric_limits<SimTime>::max(), &t, &id, &cb)) {
    now = t;
    ++m.events;
    cb();
    cb = nullptr;
  }
  m.wall_seconds = now_seconds() - t0;
  m.events_per_sec =
      m.wall_seconds > 0.0 ? static_cast<double>(m.events) / m.wall_seconds : 0.0;
  return m;
}

json::Value micro_json(const Micro& m) {
  json::Value v = json::Value::object();
  v["events"] = m.events;
  v["wall_seconds"] = m.wall_seconds;
  v["events_per_sec"] = m.events_per_sec;
  return v;
}

json::Value memory_json(const CellRun& r) {
  json::Value m = json::Value::object();
  m["tracker_bytes"] = static_cast<std::uint64_t>(r.tracker.bytes());
  m["tracker_slot_bytes"] = static_cast<std::uint64_t>(r.tracker.slot_bytes);
  m["tracker_node_bytes"] = static_cast<std::uint64_t>(r.tracker.node_bytes);
  m["tracker_index_bytes"] = static_cast<std::uint64_t>(r.tracker.index_bytes);
  m["tracker_peak_live_slots"] = static_cast<std::uint64_t>(r.tracker.peak_live_slots);
  m["completed_record_bytes"] = r.completed_bytes;
  m["billing_record_bytes"] = r.billing_bytes;
  m["arrival_bytes"] = r.arrival_bytes;
  return m;
}

json::Value calendar_json(const sim::CalendarStats& cal) {
  json::Value cs = json::Value::object();
  cs["resizes"] = cal.resizes;
  cs["direct_searches"] = cal.direct_searches;
  cs["buckets"] = static_cast<std::uint64_t>(cal.buckets);
  cs["peak_live"] = static_cast<std::uint64_t>(cal.peak_live);
  return cs;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    return line.substr(line.find_first_not_of(' ', colon + 1));
  }
  return "unknown";
}

/// The host and build the measurements describe. The git sha is the
/// checkout's at configure time ("-dirty" when it had uncommitted changes).
json::Value host_json() {
  json::Value h = json::Value::object();
  h["nproc"] = static_cast<unsigned long long>(std::max(1u, std::thread::hardware_concurrency()));
  h["cpu_model"] = cpu_model();
#if defined(__clang__)
  h["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  h["compiler"] = std::string("gcc ") + __VERSION__;
#else
  h["compiler"] = std::string("unknown");
#endif
  h["build_type"] = std::string(SMILESS_BUILD_TYPE);
  h["git_sha"] = std::string(SMILESS_GIT_SHA);
  return h;
}

/// What the lane rows measure on a host with `cores` hardware threads (0
/// when the standard library cannot tell).
std::string sharded_note(unsigned cores) {
  const std::string base = "streaming per-window arrival injection bounds the live event set; ";
  if (cores == 0) return base + "host core count unknown";
  return base + "on this " + std::to_string(cores) +
         "-core host, rows with more lane threads than cores include time-slicing";
}

/// The whole of `text` as a positive integer, or exit 2 naming `flag`.
std::uint64_t positive_int(const char* flag, const char* text) {
  std::uint64_t v = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc{} || ptr != end || v == 0) {
    std::fprintf(stderr, "bench_throughput: %s must be a positive integer, got '%s'\n", flag,
                 text);
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  CellConfig cc;
  std::uint64_t micro_events = 2'000'000;
  std::size_t micro_live = 10'000;
  std::string out_path = "BENCH_throughput.json";

  for (int i = 1; i < argc; ++i) {
    // --duration and the other harness knobs are the shared bench flags.
    if (bench::consume_shared_flag(argc, argv, i)) continue;
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_throughput: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--apps") == 0)
      cc.apps = positive_int("--apps", next("--apps"));
    else if (std::strcmp(argv[i], "--machines") == 0)
      cc.machines = positive_int("--machines", next("--machines"));
    else if (std::strcmp(argv[i], "--nodes") == 0)
      cc.nodes_per_app = positive_int("--nodes", next("--nodes"));
    else if (std::strcmp(argv[i], "--events") == 0)
      micro_events = positive_int("--events", next("--events"));
    else if (std::strcmp(argv[i], "--out") == 0)
      out_path = next("--out");
    else {
      std::fprintf(stderr, "bench_throughput: unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  cc.duration = bench::bench_duration(1800.0);
  const int lane_counts[] = {1, 2, 4, 8};
  const int max_lanes = lane_counts[std::size(lane_counts) - 1];
  if (cc.machines < static_cast<std::size_t>(max_lanes)) {
    // Every populated lane needs at least one machine of its own.
    std::fprintf(stderr,
                 "bench_throughput: --machines must be at least %d, the largest lane count\n",
                 max_lanes);
    return 2;
  }

  // One trace set shared by every run: identical arrivals in, identical
  // trajectory out for a given lane count.
  std::vector<workload::Trace> traces;
  traces.reserve(cc.apps);
  long long arrivals_total = 0;
  {
    Rng root(cc.seed);
    const std::vector<std::string> wl = bench::workload_names();
    for (std::size_t i = 0; i < cc.apps; ++i) {
      Rng child = root.fork(i + 1);
      const workload::TraceOptions topt =
          workload::preset_for_workload(wl[i % wl.size()], cc.duration);
      traces.push_back(workload::generate_trace(topt, child));
      arrivals_total += static_cast<long long>(traces.back().arrivals.size());
    }
  }
  std::fprintf(stderr,
               "bench_throughput: %zu apps x %zu nodes on %zu machines, %.0f s "
               "traces, %lld arrivals\n",
               cc.apps, cc.nodes_per_app, cc.machines, cc.duration, arrivals_total);

  const int lane_threads = bench::bench_args().lane_threads;
  struct Row {
    int lanes = 0;
    std::vector<CellRun> timed;
    CellRun profiled;
  };
  std::vector<Row> rows;
  for (const int lanes : lane_counts) {
    Row row;
    row.lanes = lanes;
    for (int k = 0; k <= kRepeats; ++k) {
      const bool profiled = k == kRepeats;
      const CellRun r = run_isolated<CellRun>(
          [&] { return run_sharded(lanes, lane_threads, profiled, cc, traces); });
      std::fprintf(stderr, "bench_throughput: [lanes=%d %s] %.2fs, counts %s\n", lanes,
                   profiled ? "profiled" : "timed", r.wall_seconds, r.counts().c_str());
      // Correctness gate: the profiler and the repeat must be unobservable
      // in the trajectory.
      if (k > 0 && r.counts() != row.timed.front().counts()) {
        std::fprintf(stderr, "bench_throughput: DIVERGENCE at lanes=%d: %s vs %s\n", lanes,
                     r.counts().c_str(), row.timed.front().counts().c_str());
        return 1;
      }
      if (profiled) {
        row.profiled = r;
      } else {
        row.timed.push_back(r);
      }
    }
    rows.push_back(std::move(row));
  }

  const Micro mcal = run_isolated<Micro>(
      [&] { return run_micro<sim::CalendarQueue>(micro_events, micro_live, cc.seed); });
  const Micro mheap = run_isolated<Micro>(
      [&] { return run_micro<sim::ReferenceQueue>(micro_events, micro_live, cc.seed); });
  std::fprintf(stderr,
               "bench_throughput: [micro] calendar %.0f events/s, heap %.0f "
               "events/s (%.2fx)\n",
               mcal.events_per_sec, mheap.events_per_sec,
               mheap.events_per_sec > 0.0 ? mcal.events_per_sec / mheap.events_per_sec
                                          : 0.0);

  json::Value doc = json::Value::object();
  doc["bench"] = "throughput";
  doc["host"] = host_json();
  {
    json::Value cfg = json::Value::object();
    cfg["apps"] = static_cast<std::uint64_t>(cc.apps);
    cfg["machines"] = static_cast<std::uint64_t>(cc.machines);
    cfg["nodes_per_app"] = static_cast<std::uint64_t>(cc.nodes_per_app);
    cfg["trace_duration_s"] = cc.duration;
    cfg["seed"] = cc.seed;
    cfg["repeats"] = static_cast<long long>(kRepeats);
    cfg["micro_events"] = micro_events;
    cfg["micro_live"] = static_cast<std::uint64_t>(micro_live);
    doc["config"] = cfg;
  }
  {
    // Byte-stable for a given config: the lanes=1 cell's simulation-domain
    // counts, equal across its runs by the gate above.
    const CellRun& one = rows.front().profiled;
    json::Value det = json::Value::object();
    det["arrivals_total"] = arrivals_total;
    det["requests_submitted"] = one.submitted;
    det["requests_completed"] = one.completed;
    det["events_scheduled"] = one.scheduled;
    det["events_fired"] = one.fired;
    det["events_cancelled"] = one.cancelled;
    doc["deterministic"] = det;
  }
  {
    // The lane axis (DESIGN.md §14). Lanes > 1 partition the fleet, so each
    // row's counts describe a different (but equally deterministic) cell.
    json::Value sh = json::Value::object();
    sh["lane_threads"] = static_cast<long long>(lane_threads);
    json::Value out = json::Value::array();
    for (const Row& row : rows) {
      std::vector<double> walls;
      double rss = 0.0;
      for (const CellRun& r : row.timed) {
        walls.push_back(r.wall_seconds);
        rss = std::max(rss, r.peak_rss_mb);
      }
      std::sort(walls.begin(), walls.end());
      const double median = walls[walls.size() / 2];
      const CellRun& p = row.profiled;
      json::Value v = json::Value::object();
      v["lanes"] = static_cast<long long>(row.lanes);
      v["lane_threads"] = static_cast<long long>(p.lane_threads);
      json::Value wall = json::Value::object();
      wall["median"] = median;
      wall["min"] = walls.front();
      wall["max"] = walls.back();
      v["wall_seconds"] = wall;
      v["events_per_sec"] = median > 0.0 ? static_cast<double>(p.fired) / median : 0.0;
      v["req_per_s"] = median > 0.0 ? static_cast<double>(p.submitted) / median : 0.0;
      v["peak_rss_mb"] = rss;
      v["events_scheduled"] = p.scheduled;
      v["events_fired"] = p.fired;
      v["events_cancelled"] = p.cancelled;
      v["requests_completed"] = p.completed;
      v["calendar_stats"] = calendar_json(p.cal);
      v["memory"] = memory_json(p);
      // perfbench's shard.* definitions, over the profiled run's run call.
      v["parallel_efficiency"] =
          p.run_call_seconds > 0.0
              ? p.lane_busy_ms / (p.run_call_seconds * kMillisPerSecond * p.lane_threads)
              : 0.0;
      v["lane_imbalance"] =
          p.lane_busy_ms > 0.0 ? p.lane_busy_peak_ms / (p.lane_busy_ms / p.lanes_profiled)
                               : 0.0;
      out.push_back(std::move(v));
    }
    sh["lanes"] = std::move(out);
    sh["note"] = sharded_note(std::thread::hardware_concurrency());
    doc["sharded"] = std::move(sh);
  }
  {
    json::Value micro = json::Value::object();
    micro["calendar"] = micro_json(mcal);
    micro["binary_heap"] = micro_json(mheap);
    micro["speedup"] =
        mheap.events_per_sec > 0.0 ? mcal.events_per_sec / mheap.events_per_sec : 0.0;
    doc["micro"] = micro;
  }
  doc["peak_rss_mb"] = peak_rss_mb();
  {
    // Self-profiler breakdown (DESIGN.md §15) of each lane count's profiled
    // run. Wall-clock data: stable in shape, not in values. Coverage (Σ
    // exclusive / root) is exact only when every lane nests in the root
    // frame, i.e. when the lanes are stepped on the calling thread; lanes on
    // a pool overlap the coordinator's barrier wait, so it is left out there.
    json::Value pr = json::Value::array();
    for (const Row& row : rows) {
      const json::Value snap = prof::snapshot_to_json(row.profiled.profile);
      json::Value v = json::Value::object();
      v["lanes"] = static_cast<long long>(row.lanes);
      v["sites"] = *snap.find("sites");
      v["total_ms"] = snap.get("total_ms", 0.0);
      if (row.profiled.lane_threads == 1) v["coverage"] = snap.get("coverage", 0.0);
      pr.push_back(std::move(v));
    }
    doc["profile"] = std::move(pr);
  }
  {
    // Earlier pins of this artifact, carried over from the file a re-run
    // replaces.
    json::Value history = json::Value::array();
    if (std::ifstream(out_path).good()) {
      try {
        const json::Value previous = json::load_file(out_path);
        if (const json::Value* h = previous.find("history")) history = *h;
      } catch (const std::runtime_error& e) {
        std::fprintf(stderr, "bench_throughput: no history carried over: %s\n", e.what());
      }
    }
    doc["history"] = std::move(history);
  }

  json::save_file(doc, out_path);
  std::fprintf(stderr, "bench_throughput: wrote %s\n", out_path.c_str());

  if (!bench::bench_args().report_out.empty()) {
    // Profile-only HTML report through the generic sweep template: one
    // "cell" per lane count, no time series.
    json::Value payload = json::Value::object();
    payload["title"] = std::string("bench_throughput self-profile");
    payload["generator"] = std::string("bench_throughput");
    json::Value cells = json::Value::array();
    for (const Row& row : rows) {
      json::Value cell = json::Value::object();
      cell["label"] = "lanes=" + std::to_string(row.lanes);
      cell["policy"] = std::string("bench-keepwarm");
      cell["app"] = std::string("synthetic-pipeline");
      cell["seed"] = static_cast<long long>(cc.seed);
      cell["lanes"] = static_cast<long long>(row.lanes);
      cell["profile"] = prof::snapshot_to_json(row.profiled.profile);
      cells.push_back(std::move(cell));
    }
    payload["cells"] = std::move(cells);
    std::ofstream os(bench::bench_args().report_out, std::ios::binary);
    if (!os.good()) {
      std::fprintf(stderr, "bench_throughput: cannot write %s\n",
                   bench::bench_args().report_out.c_str());
      return 1;
    }
    os << exp::render_report(payload);
    std::fprintf(stderr, "bench_throughput: wrote %s\n",
                 bench::bench_args().report_out.c_str());
  }
  return 0;
}
