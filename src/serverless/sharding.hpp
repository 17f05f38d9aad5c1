#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "apps/app.hpp"
#include "cluster/cluster.hpp"
#include "faults/fault_injector.hpp"
#include "perfmodel/hardware.hpp"
#include "serverless/platform.hpp"
#include "sim/engine.hpp"

namespace smiless::obs {
class Telemetry;
struct LaneTelemetry;
}  // namespace smiless::obs

namespace smiless::sim {
class Driver;
}  // namespace smiless::sim

namespace smiless::serverless {

/// Knobs for one sharded cell (DESIGN.md §14).
struct ShardOptions {
  /// Number of lanes apps are hash-partitioned into. 1 degenerates to a
  /// single lane holding every app over the whole cluster.
  int lanes = 1;

  /// Threads stepping lanes between window barriers. 1 steps lanes serially
  /// on the calling thread; 0 picks hardware concurrency (capped at the
  /// populated lane count). The choice affects wall-clock only — every
  /// artifact is byte-identical at any thread count. Lanes never run on a
  /// policy solver pool (a policy blocking on its own pool would deadlock).
  int lane_threads = 0;

  std::uint64_t seed = 42;

  /// Fleet divided among the *populated* lanes (contiguous slices, remainder
  /// machines to the earliest lanes). A single populated lane gets the whole
  /// fleet, which is what makes single-app cells invariant in `lanes`.
  std::size_t machines = 8;
  cluster::MachineSpec machine_spec;
  perf::Pricing pricing;

  /// Per-lane platform knobs; `window_seconds` doubles as the barrier
  /// period. `lane` and the fault/bus pointers are overwritten per lane.
  PlatformOptions platform;

  /// Cell-wide fault model. Scheduled crashes are filtered to each lane's
  /// machine slice (ids remapped to lane-local); rate-based knobs apply to
  /// every lane, drawn from its private RNG stream.
  faults::FaultSpec faults;

  /// Merged observability output (non-owning, may be null). A lone
  /// populated lane publishes straight into it. Otherwise each lane records
  /// into bare private logs (events + decisions); at every window barrier,
  /// and once more after finalize, the lane logs' settled prefixes are
  /// merged in deterministic (t, lane, order) order into this bundle with
  /// app/machine ids translated back to the cell's global spaces, and
  /// dropped from the lanes, so a lane holds about one window of entries.
  /// With telemetry, every policy's decision records land here too; without
  /// it, a policy keeps the audit log its caller attached (a log shared by
  /// apps of different lanes then needs lane_threads = 1).
  obs::Telemetry* telemetry = nullptr;

  /// Merged self-profiler output (non-owning, may be null). Profilers are
  /// not thread-safe, so each lane times itself into a private Profiler
  /// (lane step, engine, platform subsystems) while the coordinator charges
  /// barrier waits and telemetry merges here; lane profilers are merged
  /// into this one — keeping a per-lane breakdown — after the run. A lane
  /// working on the calling thread nests in the coordinator's open scope,
  /// so a serial cell's exclusive times still sum to its root. Wall-clock
  /// only; the trajectory and every golden-compared artifact are identical
  /// with or without it.
  prof::Profiler* prof = nullptr;
};

/// A single cell's simulation sharded into deterministic parallel lanes.
///
/// Apps are partitioned by a stable hash of their deploy index; each lane
/// owns a full private world — engine, cluster slice, RNG, fault injector,
/// platform, event and decision logs — and lanes advance in lockstep between
/// `window_seconds` barriers. Because lanes share no mutable state and every
/// merge is ordered by (time, lane id, per-lane order), the output is
/// bit-identical at any `lane_threads`, and a cell whose apps land in one
/// lane is invariant in the lane count: the lone lane inherits the whole
/// cluster, the unmixed seed (the lane seed of app index 0 IS the cell seed)
/// and the full fault spec.
///
/// This is the one cell executor: baselines::run_colocated, `smiless serve`
/// and the benchmarks all run here. Each lane's arrivals stream in through
/// its ArrivalSource, one window at a time at the barrier (or as a pacing
/// driver's clock reaches them), bounding live events in each lane's queue
/// to roughly a window's worth.
///
/// Usage: add_app() every app, then run() exactly once, then read the books.
class ShardedPlatform {
 public:
  explicit ShardedPlatform(ShardOptions options);
  ~ShardedPlatform();

  ShardedPlatform(const ShardedPlatform&) = delete;
  ShardedPlatform& operator=(const ShardedPlatform&) = delete;

  /// Register an app with its policy and full arrival sequence (sorted,
  /// absolute sim times). Returns the app's global id. Call before run().
  int add_app(apps::App app, std::shared_ptr<Policy> policy, std::vector<SimTime> arrivals);

  /// Build the lanes, serve until `end` in window-barrier lockstep (merging
  /// telemetry at each barrier), finalize every lane and merge the rest.
  /// Call exactly once. With a `driver` (non-owning), the driver pumps the
  /// lone populated lane's engine and pulls its ArrivalSource instead of
  /// the barrier loop (DESIGN.md §16); a cell that populates more than one
  /// lane raises a CheckError.
  void run(SimTime end, sim::Driver* driver = nullptr);

  /// The stable partition function: lane of the app with deploy index
  /// `global_index` under a `lanes`-way split.
  static int lane_for(std::size_t global_index, int lanes);

  int lane_of(int app) const;

  // --- the merged books (valid after run()) --------------------------------

  const AppMetrics& metrics(int app) const;
  /// Engine counters summed over lanes.
  sim::EngineStats engine_stats() const;
  /// Injector counters summed over lanes.
  faults::FaultStats fault_stats() const;
  /// Calendar-queue internals summed over lanes (resizes and direct
  /// searches add; buckets and peak_live are summed footprints). Internal
  /// diagnostics only: they describe how the queue sized itself, not the
  /// trajectory — a driver-paced run of a cell injects per instant where
  /// the barrier injects per window, and the values differ even though the
  /// trajectories are identical — so they stay out of comparable artifacts
  /// unless explicitly requested (ObservabilityOptions::internal_stats).
  sim::CalendarStats calendar_stats() const;

  int populated_lanes() const;
  /// Threads that stepped the lanes: the lane pool's size, or 1 when they
  /// were stepped on the calling thread (or paced by a driver).
  int lane_threads_used() const { return lane_threads_used_; }
  const ShardOptions& options() const { return options_; }

 private:
  struct Lane;
  struct PendingApp {
    apps::App app;
    std::shared_ptr<Policy> policy;
    std::vector<SimTime> arrivals;
  };
  struct AppRef {
    int lane_index = -1;  ///< index into lanes_ (populated lanes only)
    AppId local = 0;      ///< the app's id inside its lane's platform
  };

  void build_lanes();
  /// The barrier loop: step every lane one window at a time to `end`.
  void step_windows(SimTime end);
  /// Hand every lane entry with t < before to options_.telemetry.
  void merge_telemetry(double before);

  ShardOptions options_;
  std::vector<PendingApp> pending_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<AppRef> refs_;
  std::vector<obs::LaneTelemetry> streams_;  ///< the lanes' logs, when collecting
  bool ran_ = false;
  int lane_threads_used_ = 1;
};

}  // namespace smiless::serverless
