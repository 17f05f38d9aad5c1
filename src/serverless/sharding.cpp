#include "serverless/sharding.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "concurrency/thread_pool.hpp"
#include "obs/audit.hpp"
#include "obs/event_bus.hpp"
#include "obs/merge.hpp"
#include "obs/telemetry.hpp"
#include "prof/profiler.hpp"
#include "serverless/arrival_source.hpp"

namespace smiless::serverless {

/// One lane's private world. Member order is construction order: Engine,
/// Cluster, Rng, FaultInjector (which forks its child stream off the lane Rng
/// iff any fault knob is set), then Platform — so a lone populated lane
/// consumes the cell seed's stream exactly as every golden pinned it.
struct ShardedPlatform::Lane {
  int id;
  sim::Engine engine;
  cluster::Cluster cluster;
  int machine_base;
  Rng rng;
  faults::FaultInjector injector;
  // Bare logs, used only when the cell collects telemetry over several
  // lanes: no sinks, no registry, no series. Every window barrier hands
  // their prefix to the cell's Telemetry and drops it (obs::merge_lanes).
  obs::EventBus bus;
  obs::AuditLog audit;
  std::unique_ptr<prof::Profiler> prof;  ///< private: profilers are not thread-safe
  std::unique_ptr<Platform> platform;
  std::optional<ArrivalSource> arrivals;  ///< the lane's WorkSource, over `platform`
  std::vector<int> app_map;               ///< lane-local app id -> global

  Lane(int lane_id, std::size_t machines, cluster::MachineSpec spec, int base,
       std::uint64_t seed, faults::FaultSpec fspec)
      : id(lane_id),
        cluster(machines, spec),
        machine_base(base),
        rng(seed),
        injector(std::move(fspec), rng) {}
};

ShardedPlatform::ShardedPlatform(ShardOptions options) : options_(std::move(options)) {
  SMILESS_CHECK(options_.lanes >= 1);
  SMILESS_CHECK(options_.lane_threads >= 0);
  SMILESS_CHECK(options_.machines >= 1);
}

ShardedPlatform::~ShardedPlatform() = default;

int ShardedPlatform::add_app(apps::App app, std::shared_ptr<Policy> policy,
                             std::vector<SimTime> arrivals) {
  SMILESS_CHECK_MSG(!ran_, "add_app after run()");
  SMILESS_CHECK(policy != nullptr);
  pending_.push_back({std::move(app), std::move(policy), std::move(arrivals)});
  return static_cast<int>(pending_.size()) - 1;
}

int ShardedPlatform::lane_for(std::size_t global_index, int lanes) {
  SMILESS_CHECK(lanes >= 1);
  // splitmix64 finalizer: platform-stable, uniform even for tiny indices.
  std::uint64_t z = static_cast<std::uint64_t>(global_index) + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return static_cast<int>(z % static_cast<std::uint64_t>(lanes));
}

void ShardedPlatform::build_lanes() {
  SMILESS_CHECK_MSG(!pending_.empty(), "sharded cell with no apps");
  refs_.resize(pending_.size());

  // Stable partition; only populated lanes get a world, in lane-id order.
  std::vector<std::vector<std::size_t>> members(static_cast<std::size_t>(options_.lanes));
  for (std::size_t g = 0; g < pending_.size(); ++g)
    members[static_cast<std::size_t>(lane_for(g, options_.lanes))].push_back(g);
  std::vector<int> populated;
  for (int l = 0; l < options_.lanes; ++l)
    if (!members[static_cast<std::size_t>(l)].empty()) populated.push_back(l);
  SMILESS_CHECK_MSG(populated.size() <= options_.machines,
                    "more populated lanes (" << populated.size() << ") than machines ("
                                             << options_.machines << ")");

  // A lone populated lane's ids already are the cell's (every app, deployed
  // in global order, on the whole fleet from machine 0), so it publishes
  // straight into the cell's Telemetry, live, as a pacing driver needs.
  // Several lanes keep bare private logs that every barrier merges.
  const bool merged = options_.telemetry != nullptr && populated.size() > 1;

  const std::size_t base_machines = options_.machines / populated.size();
  const std::size_t extra = options_.machines % populated.size();
  int machine_base = 0;
  lanes_.reserve(populated.size());
  for (std::size_t p = 0; p < populated.size(); ++p) {
    const int lane_id = populated[p];
    const auto& mine = members[static_cast<std::size_t>(lane_id)];
    const std::size_t n = base_machines + (p < extra ? 1 : 0);

    // Lane seed: decorrelate lanes by their first member's global index.
    // Mixing with index 0 is the identity, so a lone populated lane (every
    // single-app cell, and every K=1 run) draws from the cell seed itself.
    const std::uint64_t lane_seed =
        options_.seed ^
        (static_cast<std::uint64_t>(mine.front()) * 0x9E3779B97F4A7C15ull);

    faults::FaultSpec fspec = options_.faults;
    fspec.crashes.clear();
    for (const auto& c : options_.faults.crashes)
      if (c.machine >= machine_base && c.machine < machine_base + static_cast<int>(n)) {
        faults::ScheduledCrash local = c;
        local.machine -= machine_base;
        fspec.crashes.push_back(local);
      }

    auto lane = std::make_unique<Lane>(lane_id, n, options_.machine_spec, machine_base,
                                       lane_seed, std::move(fspec));
    if (options_.prof != nullptr) {
      lane->prof = std::make_unique<prof::Profiler>(lane_id);
      lane->prof->nest_in(options_.prof);  // deploy and finalize run on this thread
      lane->engine.set_profiler(lane->prof.get());
    }
    PlatformOptions popt = options_.platform;
    popt.lane = lane_id;
    popt.faults = lane->injector.enabled() ? &lane->injector : nullptr;
    if (options_.telemetry != nullptr)
      popt.bus = merged ? &lane->bus : &options_.telemetry->bus();
    popt.prof = lane->prof.get();
    lane->platform = std::make_unique<Platform>(lane->engine, lane->cluster,
                                                options_.pricing, lane->rng, popt);
    lane->arrivals.emplace(*lane->platform);
    lane->injector.set_bus(popt.bus);
    lane->injector.arm(lane->engine, lane->cluster);

    for (std::size_t g : mine) refs_[g].lane_index = static_cast<int>(p);
    machine_base += static_cast<int>(n);
    lanes_.push_back(std::move(lane));
  }

  // Deploy in global order so a lane's deploy sequence is the subsequence of
  // the cell's.
  for (std::size_t g = 0; g < pending_.size(); ++g) {
    PendingApp& pa = pending_[g];
    Lane& lane = *lanes_[static_cast<std::size_t>(refs_[g].lane_index)];
    if (options_.telemetry != nullptr) {
      std::vector<std::string> node_names;
      node_names.reserve(pa.app.dag.size());
      for (std::size_t nd = 0; nd < pa.app.dag.size(); ++nd)
        node_names.push_back(pa.app.dag.name(static_cast<dag::NodeId>(nd)));
      options_.telemetry->register_app(static_cast<int>(g), pa.app.name,
                                       std::move(node_names), pa.app.sla);
      // Decision records follow the events: into the lane's log (merged at
      // each barrier; a caller-attached log would be written from several
      // lane threads) or straight into the cell's. Without telemetry a
      // policy keeps whatever log its caller attached.
      pa.policy->set_audit_log(merged ? &lane.audit : &options_.telemetry->audit());
    }
    const AppId id = lane.platform->deploy(std::move(pa.app), std::move(pa.policy));
    refs_[g].local = id;
    lane.app_map.push_back(static_cast<int>(g));
    lane.arrivals->add(id, std::move(pa.arrivals));
  }

  if (merged) {
    streams_.reserve(lanes_.size());
    for (auto& lane : lanes_)
      streams_.push_back({&lane->bus, &lane->audit, &lane->app_map, lane->machine_base});
  }
}

void ShardedPlatform::merge_telemetry(double before) {
  if (streams_.empty()) return;
  prof::ScopeTimer merge_scope(options_.prof, prof::Site::ShardMerge);
  obs::merge_lanes(streams_, *options_.telemetry, before);
}

void ShardedPlatform::run(SimTime end, sim::Driver* driver) {
  SMILESS_CHECK_MSG(!ran_, "ShardedPlatform::run is one-shot");
  ran_ = true;
  SMILESS_CHECK(end > 0.0);
  build_lanes();

  if (driver != nullptr) {
    // The driver owns the pump: it paces the lane's engine and pulls the
    // lane's arrivals as they fall due, then flushes the tail itself.
    SMILESS_CHECK_MSG(lanes_.size() == 1,
                      "a driver paces one populated lane; this cell populates "
                          << lanes_.size());
    Lane& lane = *lanes_.front();
    driver->drive(lane.engine, &*lane.arrivals, end);
  } else {
    step_windows(end);
  }

  {
    prof::ScopeTimer fin_scope(options_.prof, prof::Site::Finalize);
    for (auto& lane : lanes_) lane->platform->finalize(end);
  }
  merge_telemetry(std::numeric_limits<double>::infinity());

  if (options_.prof != nullptr)
    for (const auto& lane : lanes_)
      if (lane->prof != nullptr) options_.prof->merge(*lane->prof);
}

void ShardedPlatform::step_windows(SimTime end) {
  const double w = options_.platform.window_seconds;
  SMILESS_CHECK(w > 0.0);

  // Lanes get a private pool: they must never share the policies' solver
  // pool (a policy blocking on its own pool's futures from a lane thread
  // would deadlock the barrier). A pool with one effective worker (e.g.
  // lane_threads=0 on a single-core host) is pure dispatch overhead, so
  // those cases take the serial path — the results are identical either
  // way, per the lane_threads invariance contract.
  std::unique_ptr<ThreadPool> pool;
  if (options_.lane_threads != 1 && lanes_.size() > 1) {
    const std::size_t want =
        options_.lane_threads == 0
            ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
            : static_cast<std::size_t>(options_.lane_threads);
    const std::size_t workers = std::min(want, lanes_.size());
    if (workers > 1) pool = std::make_unique<ThreadPool>(workers);
  }
  if (pool != nullptr) lane_threads_used_ = static_cast<int>(pool->thread_count());
  // Lanes stepped on worker threads overlap the coordinator's barrier wait
  // instead of nesting in it (and must not touch its frames).
  const auto nest_lanes = [&](prof::Profiler* host) {
    for (auto& lane : lanes_)
      if (lane->prof != nullptr) lane->prof->nest_in(host);
  };
  if (pool != nullptr) nest_lanes(nullptr);

  double t = 0.0;
  while (t < end) {
    const double step_end = std::min(end, t + w);
    // The final step flushes every remaining arrival, even past `end`: those
    // events never fire, but scheduling them keeps `events_scheduled` at the
    // count every golden and pin was taken with.
    const bool flush = step_end >= end;
    auto step = [&](std::size_t li) {
      Lane& lane = *lanes_[li];
      // Per-lane wall time, recorded into the lane's private profiler on
      // whichever thread runs the step.
      prof::ScopeTimer lane_scope(lane.prof.get(), prof::Site::LaneStep);
      if (flush) {
        lane.arrivals->flush();
      } else {
        lane.arrivals->inject_before(step_end);
      }
      lane.engine.run_until(step_end);
    };
    {
      // The coordinator charges the whole window — i.e. the wait for the
      // slowest lane — to the barrier site. Lanes stepped on this thread
      // nest in it, so its exclusive time is the coordinator's own; lanes
      // on the pool overlap it.
      prof::ScopeTimer barrier(options_.prof, prof::Site::ShardBarrier);
      if (pool != nullptr) {
        parallel_for(*pool, lanes_.size(), step);
      } else {
        for (std::size_t li = 0; li < lanes_.size(); ++li) step(li);
      }
    }
    // Every lane is at step_end now and lane time is monotone, so entries
    // with t < step_end are final. Arrivals at exactly step_end are injected
    // by the next step: the cut must be strict.
    merge_telemetry(step_end);
    t = step_end;
  }

  if (pool != nullptr) nest_lanes(options_.prof);
}

int ShardedPlatform::lane_of(int app) const {
  SMILESS_CHECK_MSG(ran_, "lane_of before run()");
  SMILESS_CHECK(app >= 0 && static_cast<std::size_t>(app) < refs_.size());
  return lanes_[static_cast<std::size_t>(refs_[static_cast<std::size_t>(app)].lane_index)]->id;
}

const AppMetrics& ShardedPlatform::metrics(int app) const {
  SMILESS_CHECK_MSG(ran_, "metrics before run()");
  SMILESS_CHECK(app >= 0 && static_cast<std::size_t>(app) < refs_.size());
  const AppRef& r = refs_[static_cast<std::size_t>(app)];
  return lanes_[static_cast<std::size_t>(r.lane_index)]->platform->metrics(r.local);
}

const std::vector<Ledger::BillingRecord>& ShardedPlatform::billing(int app) const {
  SMILESS_CHECK_MSG(ran_, "billing before run()");
  SMILESS_CHECK(app >= 0 && static_cast<std::size_t>(app) < refs_.size());
  const AppRef& r = refs_[static_cast<std::size_t>(app)];
  return lanes_[static_cast<std::size_t>(r.lane_index)]->platform->ledger().billing(r.local);
}

TrackerMemory ShardedPlatform::tracker_memory() const {
  TrackerMemory sum;
  for (const auto& lane : lanes_) sum += lane->platform->tracker_memory();
  return sum;
}

sim::EngineStats ShardedPlatform::engine_stats() const {
  sim::EngineStats sum;
  for (const auto& lane : lanes_) {
    const sim::EngineStats& s = lane->engine.stats();
    sum.scheduled += s.scheduled;
    sum.fired += s.fired;
    sum.cancelled += s.cancelled;
  }
  return sum;
}

sim::CalendarStats ShardedPlatform::calendar_stats() const {
  sim::CalendarStats sum;
  for (const auto& lane : lanes_) {
    const sim::CalendarStats& s = lane->engine.calendar_stats();
    sum.resizes += s.resizes;
    sum.direct_searches += s.direct_searches;
    sum.buckets += s.buckets;
    sum.peak_live += s.peak_live;
  }
  return sum;
}

faults::FaultStats ShardedPlatform::fault_stats() const {
  faults::FaultStats sum;
  for (const auto& lane : lanes_) {
    const faults::FaultStats& s = lane->injector.stats();
    sum.init_failures += s.init_failures;
    sum.stragglers += s.stragglers;
    sum.crashes += s.crashes;
    sum.recoveries += s.recoveries;
  }
  return sum;
}

int ShardedPlatform::populated_lanes() const { return static_cast<int>(lanes_.size()); }

}  // namespace smiless::serverless
