#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/catalog.hpp"
#include "baselines/experiment.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "concurrency/thread_pool.hpp"
#include "host.hpp"
#include "keepwarm.hpp"
#include "layers.hpp"
#include "obs/telemetry.hpp"
#include "prof/profiler.hpp"
#include "profiler/offline_profiler.hpp"
#include "serverless/sharding.hpp"
#include "trace.hpp"
#include "workload/trace.hpp"

namespace perfbench {

using namespace smiless;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kDrainSlack = 120.0;  // sim seconds to drain in-flight requests
constexpr double kFleetSla = 2.0;
constexpr std::size_t kFleetNodes = 3;

/// One app's outcome as read from the books after the run.
struct AppBooks {
  long submitted = 0;
  long completed = 0;
  long failed = 0;
  long violations = 0;  ///< completed past the SLA, failed, or unfinished
  double e2e_sum = 0.0;
  double cost = 0.0;
};

struct Books {
  std::vector<AppBooks> apps;
  long invocations = 0;
  long cold_starts = 0;
  long retries = 0;
  long evictions = 0;
  long timeouts = 0;
  double result_bytes = 0.0;  ///< per-request and window-sample vectors returned
};

AppBooks read_books(const serverless::AppMetrics& m, double sla, Books& books) {
  AppBooks a;
  a.submitted = m.submitted;
  a.completed = static_cast<long>(m.completed.size());
  a.failed = m.failed;
  for (const auto& rec : m.completed) {
    const double e2e = rec.e2e();
    a.e2e_sum += e2e;
    if (e2e > sla) ++a.violations;
  }
  a.violations += std::max<long>(0, a.submitted - a.completed);
  a.cost = m.total_cost();
  books.invocations += m.total_invocations();
  books.cold_starts += m.total_initializations();
  books.retries += m.total_retries();
  books.evictions += m.total_evictions();
  books.timeouts += m.total_timeouts();
  books.result_bytes += static_cast<double>(m.completed.size() * sizeof(serverless::RequestRecord) +
                                            m.windows.size() * sizeof(serverless::WindowSample));
  return a;
}

AppBooks read_books(const baselines::RunResult& r, double sla, Books& books) {
  AppBooks a;
  a.submitted = r.submitted;
  a.completed = r.completed;
  a.failed = r.failed;
  for (const double e2e : r.e2e) {
    a.e2e_sum += e2e;
    if (e2e > sla) ++a.violations;
  }
  a.violations += std::max<long>(0, a.submitted - a.completed);
  a.cost = r.cost;
  books.invocations += r.invocations;
  books.cold_starts += r.initializations;
  books.retries += r.retries;
  books.evictions += r.evictions;
  books.timeouts += r.timeouts;
  books.result_bytes += static_cast<double>(r.e2e.size() * sizeof(double) +
                                            r.windows.size() * sizeof(serverless::WindowSample));
  return a;
}

[[noreturn]] void invariant_failed(std::size_t app, const std::string& what) {
  throw std::runtime_error("request-accounting invariant failed for app " + std::to_string(app) +
                           ": " + what);
}

/// submitted = completed + failed + unfinished with every term >= 0, every
/// arrival handed in was submitted, and the ratios lie in [0, 1].
void check_books(const Books& books, const std::vector<long>& handed_in) {
  for (std::size_t i = 0; i < books.apps.size(); ++i) {
    const AppBooks& a = books.apps[i];
    if (a.submitted != handed_in[i])
      invariant_failed(i, "submitted " + std::to_string(a.submitted) + " != arrivals handed in " +
                              std::to_string(handed_in[i]));
    if (a.completed < 0 || a.failed < 0 || a.completed + a.failed > a.submitted)
      invariant_failed(i, "completed + failed exceeds submitted");
    if (!std::isfinite(a.e2e_sum) || a.e2e_sum < 0.0) invariant_failed(i, "bad e2e sum");
    if (!std::isfinite(a.cost) || a.cost < 0.0) invariant_failed(i, "bad ledger cost");
    if (a.violations < 0 || a.violations > a.submitted)
      invariant_failed(i, "violation ratio outside [0, 1]");
  }
}

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Outcome fingerprint: FNV-1a over every app's completed and failed counts,
/// e2e sum and ledger cost (hexfloat, so bit-exact), plus the totals.
/// Engine counters are deliberately not part of it.
std::string fingerprint(const Books& books) {
  std::uint64_t h = 1469598103934665603ull;
  long completed = 0;
  long failed = 0;
  double e2e = 0.0;
  double cost = 0.0;
  for (const AppBooks& a : books.apps) {
    const std::string line = std::to_string(a.completed) + " " + std::to_string(a.failed) + " " +
                             hexfloat(a.e2e_sum) + " " + hexfloat(a.cost) + "\n";
    for (const unsigned char c : line) {
      h ^= c;
      h *= 1099511628211ull;
    }
    completed += a.completed;
    failed += a.failed;
    e2e += a.e2e_sum;
    cost += a.cost;
  }
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016" PRIx64, h);
  return std::string("fnv1a64=") + digest + " apps=" + std::to_string(books.apps.size()) +
         " completed=" + std::to_string(completed) + " failed=" + std::to_string(failed) +
         " e2e=" + hexfloat(e2e) + " cost=" + hexfloat(cost);
}

/// Nearest-rank quantile of an unsorted sample (0 when empty).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// State shared by the phases of one workload run.
struct Run {
  std::uint64_t seed = 0;
  bool traced = false;
  bool setup_only = false;
  SpanLog spans;
  int root_span = -1;
  TimedPolicy::Shared shared;
  std::vector<std::shared_ptr<TimedPolicy>> timed;
  json::Value doc = json::Value::object();
  json::Value layers = json::Value::object();

  /// Wrap `policy` in a timing decorator when traced.
  std::shared_ptr<serverless::Policy> wrap(std::shared_ptr<serverless::Policy> policy,
                                           TimedPolicy::Shared* with, bool sentinel) {
    if (!traced) return policy;
    auto t = std::make_shared<TimedPolicy>(std::move(policy), with, sentinel);
    timed.push_back(t);
    return t;
  }

  int begin(const char* name, int parent) { return traced ? spans.begin(name, parent) : -1; }
  void end(int id) {
    if (traced) spans.end(id);
  }
};

/// Everything a workload reports after its run call returned.
struct Measured {
  double setup_s = 0.0;
  double run_s = 0.0;      ///< run call until results in hand
  double run_call_s = 0.0;  ///< the run call alone
  double cpu_s = 0.0;
  double busy_thread_s = 0.0;  ///< simulation thread time inside the run call
  double arrival_bytes = 0.0;
  double obs_bytes = 0.0;
  long long arrivals = 0;
  Books books;
  std::vector<long> handed_in;
  std::vector<double> slas;
};

void record_outcome(Run& run, const Measured& m) {
  check_books(m.books, m.handed_in);
  long long submitted = 0, completed = 0, failed = 0, violations = 0;
  double cost = 0.0;
  for (const AppBooks& a : m.books.apps) {
    submitted += a.submitted;
    completed += a.completed;
    failed += a.failed;
    violations += a.violations;
    cost += a.cost;
  }
  if (submitted <= 0) throw std::runtime_error("workload submitted no requests");
  const double sub = static_cast<double>(submitted);
  json::Value& d = run.doc;
  d["setup_s"] = m.setup_s;
  d["run_s"] = m.run_s;
  d["run_call_s"] = m.run_call_s;
  d["cpu_s"] = m.cpu_s;
  d["req_per_s"] = m.run_s > 0.0 ? sub / m.run_s : 0.0;
  d["requests"] = submitted;
  d["requests_completed"] = completed;
  d["requests_failed"] = failed;
  d["requests_unfinished"] = submitted - completed - failed;
  d["slo_violation_pct"] = 100.0 * static_cast<double>(violations) / sub;
  d["failure_pct"] = 100.0 * static_cast<double>(failed) / sub;
  d["cost_usd"] = cost;
  d["fingerprint"] = fingerprint(m.books);
  if (m.books.apps.size() <= 64) {
    json::Value per_app = json::Value::array();
    for (const AppBooks& a : m.books.apps) {
      json::Value v = json::Value::object();
      v["submitted"] = a.submitted;
      v["completed"] = a.completed;
      v["failed"] = a.failed;
      v["violations"] = a.violations;
      v["cost_usd"] = a.cost;
      per_app.push_back(std::move(v));
    }
    d["apps"] = std::move(per_app);
  }
  json::Value mem = json::Value::object();
  mem["arrival_mb"] = m.arrival_bytes / kMiB;
  mem["result_mb"] = m.books.result_bytes / kMiB;
  mem["obs_retained_mb"] = m.obs_bytes / kMiB;
  d["memory"] = std::move(mem);
  d["peak_rss_mb"] = peak_rss_mb();

  json::Value& l = run.layers;
  l["workload.arrivals"] = m.arrivals;
  l["workload.arrival_mb"] = m.arrival_bytes / kMiB;
  l["serverless.invocations"] = m.books.invocations;
  l["serverless.cold_starts"] = m.books.cold_starts;
  l["serverless.warm_ratio"] =
      m.books.invocations > 0
          ? std::max(0.0, 1.0 - static_cast<double>(m.books.cold_starts) /
                                    static_cast<double>(m.books.invocations))
          : 0.0;
  l["serverless.retries"] = m.books.retries;
  l["serverless.evictions"] = m.books.evictions;
  l["serverless.timeouts"] = m.books.timeouts;
  l["serverless.result_mb"] = m.books.result_bytes / kMiB;
  l["obs.retained_mb"] = m.obs_bytes / kMiB;
}

/// Policy-hook totals over every decorator, plus the sentinel's windows.
void record_hooks(Run& run, const Measured& m, std::uint64_t solver_calls, double solver_ms) {
  HookTotals t;
  for (const auto& p : run.timed) t.merge(p->totals());
  json::Value& l = run.layers;
  const double window_ms = static_cast<double>(t.window_ns) / kNanosPerMilli;
  l["core.on_window_calls"] = t.window_calls;
  l["core.on_window_ms"] = window_ms;
  l["core.on_window_share"] =
      m.busy_thread_s > 0.0 ? window_ms / (m.busy_thread_s * kMillisPerSecond) : 0.0;
  l["core.on_window_us_p50"] = t.window_hist.quantile_ns(0.50) / kNanosPerMicro;
  l["core.on_window_us_p99"] = t.window_hist.quantile_ns(0.99) / kNanosPerMicro;
  l["core.on_arrival_ms"] = static_cast<double>(t.arrival_ns) / kNanosPerMilli;
  l["core.on_instance_failed_ms"] = static_cast<double>(t.failed_ns) / kNanosPerMilli;
  l["core.solver_calls"] = solver_calls;
  l["core.solver_ms"] = solver_ms;
  l["core.outside_solver_ms"] = std::max(0.0, window_ms - solver_ms);
  l["shard.window_ms_p50"] = quantile(run.shared.window_ms, 0.50);
  l["shard.window_ms_p99"] = quantile(run.shared.window_ms, 0.99);
  l["shard.windows"] = static_cast<long long>(run.shared.window_ms.size());
  l["trace.run_ms"] = m.run_call_s * kMillisPerSecond;
}

/// Shard metrics from the self-profiler's per-lane breakdown: lane busy is
/// each lane's LaneStep time; the coordinator's ShardBarrier time is the
/// wall time of all window steps.
void record_shards(Run& run, const prof::Profiler& profiler, double run_call_s, int lane_threads) {
  std::vector<double> busy;
  for (const auto& lane : profiler.lanes())
    busy.push_back(static_cast<double>(
                       lane.sites[static_cast<std::size_t>(prof::Site::LaneStep)].inclusive_ns) /
                   kNanosPerMilli);
  double total = 0.0, peak = 0.0;
  for (const double b : busy) {
    total += b;
    peak = std::max(peak, b);
  }
  const double barrier_ms =
      static_cast<double>(
          profiler.sites()[static_cast<std::size_t>(prof::Site::ShardBarrier)].inclusive_ns) /
      kNanosPerMilli;
  const double threads = static_cast<double>(lane_threads);
  json::Value& l = run.layers;
  l["shard.lane_busy_ms"] = total;
  l["shard.barrier_wait_ms"] = std::max(0.0, barrier_ms * threads - total);
  l["shard.parallel_efficiency"] =
      run_call_s > 0.0 ? total / (run_call_s * kMillisPerSecond * threads) : 0.0;
  l["shard.lane_imbalance"] =
      total > 0.0 ? peak / (total / static_cast<double>(busy.size())) : 0.0;
}

void record_engine(Run& run, const sim::EngineStats& es, std::size_t peak_live,
                   std::uint64_t resizes, long long requests) {
  json::Value& l = run.layers;
  l["sim.events_fired"] = es.fired;
  l["sim.events_scheduled"] = es.scheduled;
  l["sim.events_cancelled"] = es.cancelled;
  l["sim.events_per_req"] =
      requests > 0 ? static_cast<double>(es.fired) / static_cast<double>(requests) : 0.0;
  l["sim.calendar_peak_live"] = static_cast<unsigned long long>(peak_live);
  l["sim.calendar_resizes"] = resizes;
}

void write_spans(const Run& run, const std::string& path) {
  if (path.empty()) return;
  std::ofstream os(path, std::ios::binary);
  if (!os.good()) throw std::runtime_error("cannot write spans to " + path);
  os << run.spans.to_json().dump() << "\n";
}

struct FleetShape {
  std::size_t apps = 0;
  std::size_t machines = 0;
  double duration = 0.0;  ///< trace length, sim seconds
  int lanes = 1;
  int lane_threads = 1;
  bool faults_and_obs = false;
};

void run_fleet(Run& run, const FleetShape& shape) {
  Measured m;
  const std::uint64_t t_setup = wall_ns();
  const int setup_span = run.begin("setup", run.root_span);

  int span = run.begin("setup/trace_gen", setup_span);
  const std::uint64_t t_traces = wall_ns();
  std::vector<workload::Trace> traces;
  traces.reserve(shape.apps);
  {
    Rng root(run.seed);
    const char* presets[] = {"WL1", "WL2", "WL3"};
    for (std::size_t i = 0; i < shape.apps; ++i) {
      Rng child = root.fork(i + 1);
      traces.push_back(workload::generate_trace(
          workload::preset_for_workload(presets[i % 3], shape.duration), child));
    }
  }
  run.layers["workload.trace_gen_ms"] = seconds_since(t_traces) * kMillisPerSecond;
  run.end(span);

  span = run.begin("setup/deploy", setup_span);
  serverless::ShardOptions so;
  so.lanes = shape.lanes;
  so.lane_threads = shape.lane_threads;
  so.seed = run.seed;
  so.machines = shape.machines;
  std::unique_ptr<obs::Telemetry> tel;
  std::uint64_t bus_count = 0;
  if (shape.faults_and_obs) {
    // Every failure path runs (evictions, the retry ladder, timeouts) while
    // well under 1% of requests fail.
    so.faults.init_failure_prob = 0.01;
    so.faults.straggler_prob = 0.02;
    so.faults.crash_rate = 1.0 / 3600.0;
    so.faults.mttr = 30.0;
    so.faults.crash_horizon = shape.duration;
    so.platform.request_timeout = 20.0;
    tel = std::make_unique<obs::Telemetry>();
    tel->enable_series(1.0);
    if (run.traced) tel->bus().add_sink([&bus_count](const obs::Event&) { ++bus_count; });
    so.telemetry = tel.get();
  }
  prof::Profiler profiler;
  if (run.traced) so.prof = &profiler;
  serverless::ShardedPlatform sharded(so);
  double horizon = 0.0;
  for (std::size_t i = 0; i < shape.apps; ++i) {
    workload::Trace& tr = traces[i];
    horizon = std::max(horizon, static_cast<double>(tr.counts.size()) * tr.window);
    m.arrivals += static_cast<long long>(tr.arrivals.size());
    m.arrival_bytes += static_cast<double>(tr.arrivals.size() * sizeof(SimTime));
    m.handed_in.push_back(static_cast<long>(tr.arrivals.size()));
    apps::App app = apps::make_synthetic_pipeline(kFleetNodes, kFleetSla);
    m.slas.push_back(app.sla);
    auto policy = run.wrap(std::make_shared<KeepWarmPolicy>(), &run.shared, i == 0);
    sharded.add_app(std::move(app), std::move(policy), std::move(tr.arrivals));
  }
  run.end(span);
  run.end(setup_span);
  m.setup_s = seconds_since(t_setup);
  run.doc["setup_s"] = m.setup_s;
  if (run.setup_only) return;

  const double end = horizon + kDrainSlack;
  const double cpu0 = process_cpu_s();
  const std::uint64_t t_run = wall_ns();
  const int run_span = run.begin("run", run.root_span);
  run.shared.run_span = run_span;
  sharded.run(end);
  m.run_call_s = seconds_since(t_run);
  m.busy_thread_s = m.run_call_s * shape.lane_threads;
  run.end(run.shared.window_span);
  run.end(run_span);

  const int results_span = run.begin("results", run.root_span);
  for (std::size_t i = 0; i < shape.apps; ++i)
    m.books.apps.push_back(read_books(sharded.metrics(static_cast<int>(i)), m.slas[i], m.books));
  double metrics_ms = 0.0, series_ms = 0.0;
  std::size_t rendered = 0;
  if (tel != nullptr) {
    tel->finalize_series(end);
    const std::uint64_t t0 = wall_ns();
    rendered += tel->metrics_json().dump().size();
    const std::uint64_t t1 = wall_ns();
    rendered += tel->series_json().dump().size();
    metrics_ms = static_cast<double>(t1 - t0) / kNanosPerMilli;
    series_ms = seconds_since(t1) * kMillisPerSecond;
    m.obs_bytes = static_cast<double>(tel->bus().size() * sizeof(obs::Event));
  }
  run.end(results_span);
  m.run_s = seconds_since(t_run);
  m.cpu_s = process_cpu_s() - cpu0;

  record_outcome(run, m);
  json::Value& l = run.layers;
  const faults::FaultStats fs = sharded.fault_stats();
  l["faults.crashes"] = fs.crashes;
  l["faults.init_failures"] = fs.init_failures;
  l["faults.stragglers"] = fs.stragglers;
  l["profiler.store_build_ms"] = 0.0;
  l["obs.events"] = static_cast<unsigned long long>(tel != nullptr ? tel->bus().size() : 0);
  l["obs.metrics_render_ms"] = metrics_ms;
  l["obs.series_render_ms"] = series_ms;
  run.doc["rendered_bytes"] = static_cast<unsigned long long>(rendered);
  const sim::CalendarStats cs = sharded.calendar_stats();
  record_engine(run, sharded.engine_stats(), cs.peak_live, cs.resizes,
                static_cast<long long>(m.arrivals));
  if (run.traced) {
    if (tel != nullptr && bus_count != tel->bus().size())
      throw std::runtime_error("bus counting sink saw " + std::to_string(bus_count) +
                               " events, bus retained " + std::to_string(tel->bus().size()));
    record_hooks(run, m, 0, 0.0);
    record_shards(run, profiler, m.run_call_s, shape.lane_threads);
  }
  json::Value threads = json::Value::object();
  threads["lanes"] = shape.lanes;
  threads["lane_threads"] = shape.lane_threads;
  threads["policy_threads"] = 0;
  run.doc["threads"] = std::move(threads);
}

/// The paper cell, replicated: kReplicas independent copies of the §VII-A
/// deployment (wl1, wl2, wl3 and ipa co-located on one 8-machine testbed),
/// each with its own seed-derived traces, run on up to nproc worker
/// threads. One cell serves ~15 k requests with ~70 SLO violations, so its
/// violation share varies by about a quarter from seed to seed; pooling 16
/// cells brings that to about 7%.
constexpr std::size_t kReplicas = 16;
constexpr std::uint64_t kProfileSeed = 2024;  // exp::ExperimentConfig's default

void run_paper(Run& run) {
  constexpr double kDuration = 7200.0;
  Measured m;
  const std::uint64_t t_setup = wall_ns();
  const int setup_span = run.begin("setup", run.root_span);

  int span = run.begin("setup/trace_gen", setup_span);
  const std::uint64_t t_traces = wall_ns();
  Rng root(run.seed);
  std::vector<std::vector<apps::App>> cells(kReplicas);
  std::vector<std::vector<workload::Trace>> traces(kReplicas);
  for (std::size_t r = 0; r < kReplicas; ++r) {
    cells[r] = {apps::make_amber_alert(), apps::make_image_query(), apps::make_voice_assistant(),
                apps::make_ipa()};
    for (std::size_t i = 0; i < cells[r].size(); ++i) {
      Rng child = root.fork(r * cells[r].size() + i + 1);
      traces[r].push_back(workload::generate_trace(
          workload::preset_for_workload(cells[r][i].name, kDuration), child));
    }
  }
  run.layers["workload.trace_gen_ms"] = seconds_since(t_traces) * kMillisPerSecond;
  run.end(span);

  span = run.begin("setup/profile_store", setup_span);
  const std::uint64_t t_store = wall_ns();
  // The offline profile is a property of the deployment, not of the
  // workload: like the experiment configs (profile_seed), it has a seed of
  // its own, so every run fits the same models whatever --seed is.
  Rng store_rng(kProfileSeed);
  const baselines::ProfileStore store(profiler::OfflineProfiler{}, store_rng);
  run.layers["profiler.store_build_ms"] = seconds_since(t_store) * kMillisPerSecond;
  run.end(span);

  span = run.begin("setup/policies", setup_span);
  const unsigned threads = std::min(4u, nproc());
  auto pool = std::make_shared<ThreadPool>(threads);
  // Audit logs, profilers and decorators are per replica: each replica runs
  // on one worker thread and none of them is thread-safe. Only replica 0
  // records spans.
  std::vector<obs::AuditLog> audits(kReplicas);
  std::vector<prof::Profiler> profilers(kReplicas);
  TimedPolicy::Shared quiet;
  std::vector<std::vector<baselines::ColocatedApp>> deployments(kReplicas);
  for (std::size_t r = 0; r < kReplicas; ++r) {
    for (std::size_t i = 0; i < cells[r].size(); ++i) {
      baselines::PolicySettings settings;
      settings.use_lstm = true;
      settings.pool = pool;
      settings.audit = run.traced ? &audits[r] : nullptr;
      auto policy =
          baselines::make_policy(baselines::PolicyKind::Smiless, cells[r][i], store, settings);
      const workload::Trace& tr = traces[r][i];
      m.arrivals += static_cast<long long>(tr.arrivals.size());
      m.arrival_bytes += static_cast<double>(tr.arrivals.size() * sizeof(SimTime));
      m.handed_in.push_back(static_cast<long>(tr.arrivals.size()));
      m.slas.push_back(cells[r][i].sla);
      TimedPolicy::Shared* shared = r == 0 ? &run.shared : &quiet;
      deployments[r].push_back(
          {std::move(cells[r][i]), &tr, run.wrap(std::move(policy), shared, r == 0 && i == 0)});
    }
  }
  run.end(span);
  run.end(setup_span);
  m.setup_s = seconds_since(t_setup);
  run.doc["setup_s"] = m.setup_s;
  if (run.setup_only) return;

  std::vector<std::uint64_t> cell_seeds;
  for (std::size_t r = 0; r < kReplicas; ++r)
    cell_seeds.push_back(static_cast<std::uint64_t>(root.fork(0xCE11 + r).uniform_int(0, 1 << 30)));
  std::vector<std::vector<baselines::RunResult>> results(kReplicas);
  std::vector<double> replica_s(kReplicas, 0.0);
  std::vector<std::string> errors(threads);
  auto serve = [&](std::size_t r) {
    baselines::ExperimentOptions eo;
    eo.seed = cell_seeds[r];
    eo.lanes = 1;
    eo.lane_threads = 1;
    if (run.traced) eo.profiler = &profilers[r];
    const std::uint64_t t0 = wall_ns();
    results[r] = baselines::run_colocated(std::move(deployments[r]), eo);
    replica_s[r] = seconds_since(t0);
  };

  const double cpu0 = process_cpu_s();
  const std::uint64_t t_run = wall_ns();
  const int run_span = run.begin("run", run.root_span);
  run.shared.run_span = run_span;
  {
    // Workers pull replicas from a shared counter; replica 0 (the one that
    // records spans) runs first on this thread. Which thread serves a
    // replica does not change its outcome.
    std::atomic<std::size_t> next{1};
    auto work = [&](unsigned w) {
      try {
        for (std::size_t r = w == 0 ? 0 : next++; r < kReplicas; r = next++) serve(r);
      } catch (const std::exception& e) {
        errors[w] = e.what();
      }
    };
    std::vector<std::jthread> workers;
    for (unsigned w = 1; w < threads; ++w) workers.emplace_back(work, w);
    work(0);
  }
  for (const std::string& e : errors)
    if (!e.empty()) throw std::runtime_error(e);
  m.run_call_s = seconds_since(t_run);
  run.end(run.shared.window_span);
  run.end(run_span);
  const int results_span = run.begin("results", run.root_span);
  std::size_t slot = 0;
  long init_failures = 0;
  for (const auto& replica : results) {
    for (const baselines::RunResult& r : replica) {
      m.books.apps.push_back(read_books(r, m.slas[slot++], m.books));
      init_failures += r.init_failures;
    }
  }
  run.end(results_span);
  m.run_s = seconds_since(t_run);
  m.cpu_s = process_cpu_s() - cpu0;
  for (const double s : replica_s) m.busy_thread_s += s;

  record_outcome(run, m);
  json::Value& l = run.layers;
  l["faults.crashes"] = 0;
  l["faults.init_failures"] = init_failures;
  l["faults.stragglers"] = 0;
  l["obs.events"] = 0;
  l["obs.metrics_render_ms"] = 0.0;
  l["obs.series_render_ms"] = 0.0;
  if (run.traced) {
    // run_colocated does not hand out its engine; the self-profiler's
    // sampled counters (every Engine::kSampleInterval fired events) are the
    // closest outside view, so these are lower bounds at that granularity.
    sim::EngineStats es;
    double peak_live = 0.0, resizes = 0.0;
    for (const prof::Profiler& p : profilers) {
      sim::EngineStats last;
      double live = 0.0, grow = 0.0;
      for (const prof::CounterSample& s : p.samples()) {
        const auto c = static_cast<prof::Counter>(s.counter);
        const auto v = static_cast<std::uint64_t>(s.value);
        if (c == prof::Counter::EngineFired) last.fired = std::max(last.fired, v);
        if (c == prof::Counter::EngineScheduled) last.scheduled = std::max(last.scheduled, v);
        if (c == prof::Counter::EngineCancelled) last.cancelled = std::max(last.cancelled, v);
        if (c == prof::Counter::EngineLive) live = std::max(live, s.value);
        if (c == prof::Counter::CalendarResizes) grow = std::max(grow, s.value);
      }
      es.fired += last.fired;
      es.scheduled += last.scheduled;
      es.cancelled += last.cancelled;
      peak_live += live;
      resizes += grow;
    }
    record_engine(run, es, static_cast<std::size_t>(peak_live),
                  static_cast<std::uint64_t>(resizes), static_cast<long long>(m.arrivals));
    std::uint64_t solver_calls = 0;
    double solver_s = 0.0;
    for (const obs::AuditLog& a : audits) {
      solver_calls += a.solver_calls();
      solver_s += a.total_solver_seconds();
    }
    record_hooks(run, m, solver_calls, solver_s * kMillisPerSecond);
    // Each replica is one monolithic world: no lanes to balance.
    l["shard.lane_busy_ms"] = 0.0;
    l["shard.barrier_wait_ms"] = 0.0;
    l["shard.parallel_efficiency"] = 0.0;
    l["shard.lane_imbalance"] = 0.0;
  }
  json::Value th = json::Value::object();
  th["lanes"] = 1;
  th["lane_threads"] = 1;
  th["replica_threads"] = static_cast<int>(threads);
  th["replicas"] = static_cast<unsigned long long>(kReplicas);
  th["policy_threads"] = static_cast<int>(threads);
  run.doc["threads"] = std::move(th);
}

}  // namespace

json::Value run_workload(const std::string& workload, std::uint64_t seed, Mode mode,
                         const std::string& spans_path) {
  Run run;
  run.seed = seed;
  run.traced = mode == Mode::Traced;
  run.setup_only = mode == Mode::SetupOnly;
  const bool traced = run.traced;
  run.shared.spans = traced ? &run.spans : nullptr;
  run.shared.span_hooks = workload == "paper-colocated";
  run.root_span = run.begin(workload.c_str(), -1);

  // The fleets replay 300 s traces, so one run takes at most a few seconds and
  // run.py can take the median of many runs within its time. The keep-warm
  // fleet has 500 apps at the ROADMAP cell's 4.7 apps per machine: at 1500
  // apps its ~100 MB working set made timings follow other tenants' cache
  // use, doubling the run-to-run spread of half-minute medians. The sharded
  // fleet steps its 8 lanes on one thread: on a shared host a lane thread
  // that loses its CPU stalls every other lane at the window barrier, which
  // made multi-threaded timings swing by half from run to run. Lane threads
  // never change the outcome; the lane count does.
  constexpr double kFleetSeconds = 300.0;
  if (workload == "fleet-keepwarm") {
    run_fleet(run, FleetShape{500, 107, kFleetSeconds, 1, 1, false});
  } else if (workload == "fleet-sharded-obs") {
    run_fleet(run, FleetShape{400, 96, kFleetSeconds, 8, 1, true});
  } else if (workload == "paper-colocated") {
    run_paper(run);
  } else {
    throw std::runtime_error("unknown workload '" + workload + "'");
  }
  run.end(run.root_span);

  run.doc["workload"] = workload;
  run.doc["seed"] = static_cast<unsigned long long>(seed);
  if (traced) {
    const int micro_span = run.spans.begin("micro", -1);
    run.layers["trace.spans"] = static_cast<unsigned long long>(run.spans.size());
    add_micro_rows(run.layers, run.doc, seed);
    run.spans.end(micro_span);
    write_spans(run, spans_path);
    run.doc["layers"] = std::move(run.layers);
  }
  return std::move(run.doc);
}

}  // namespace perfbench
