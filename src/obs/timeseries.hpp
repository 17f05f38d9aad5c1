#pragma once

/// Fixed-cadence simulation-time series over the obs event stream — the
/// data plane for the HTML serving report and (eventually) the live view.
///
/// A TimeSeries subscribes to the cell's Telemetry bus and folds every
/// event into right-inclusive bins ((k-1)*cadence, k*cadence], recording per
/// bin:
///   arrivals / completions / failures  - request flow counts
///   slo_attainment                     - completed within the app SLA
///                                        (apps without an SLA always attain)
///   p99_latency                        - nearest-rank p99 of the bin's e2e
///   cold_starts                        - InstanceCreated count
///   instances_init / warm / busy       - container census at bin close
///   machines_busy                      - machines hosting >= 1 container
///   queue_depth                        - ready-or-executing invocations at
///                                        bin close (total + per function)
///   utilization                        - busy instance-seconds over active
///                                        instance-seconds inside the bin
///   cost_rate                          - active instance-seconds per second
///                                        (multiply by a unit price for $/s)
///
/// Every input is simulation-domain (event times, ids) — no wall clock —
/// so the series is byte-identical at any --threads/--lane-threads/--lanes
/// setting. Under sharding the lanes' logs are republished through the
/// destination Telemetry by obs::merge_lanes in deterministic (t, lane,
/// order) order, one window barrier at a time, so a series attached to the
/// merged Telemetry is the merge-associative fold of the lane streams:
/// series(merge(lanes)) == series(one lane's stream) whenever the streams
/// are equal, which the sharding invariance suite asserts.
///
/// The cadence is a serialized experiment knob (ExperimentConfig::obs);
/// disabled (cadence 0) the series costs one branch per event. Enabled, the
/// per-event state is hashed or indexed, never a tree walk: live instances
/// by their exact (app, node, instance) triple, the machine census by
/// machine id, and each request's queued nodes under its (app, request)
/// key, each holding a pointer to its function's depth gauge. Only the
/// per-function map is ordered, because the export order follows it; it is
/// looked up once per ready invocation.

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "obs/event.hpp"
#include "obs/perfetto.hpp"

namespace smiless::obs {

class TimeSeries {
 public:
  /// Start recording with the given cadence (sim seconds, > 0). Must be
  /// called before any event is observed. Idempotent for the same cadence.
  void enable(double cadence);

  bool enabled() const { return cadence_ > 0.0; }
  double cadence() const { return cadence_; }

  /// SLA (seconds) used for the app's slo_attainment accounting; 0 or
  /// negative means "no SLA" and every completion attains.
  void set_app_sla(int app, double sla);

  /// Fold one event. Event times must be nondecreasing (bus order).
  void on_event(const Event& e);

  /// Close every bin through ceil(end/cadence); call once after the run.
  void finalize(double end);

  /// Number of closed bins (valid after finalize()).
  std::size_t bins() const { return closed_.size(); }

  /// Serialized series; `apps` supplies display names for the per-function
  /// breakdown (same map Telemetry uses for its other exporters).
  json::Value to_json(const std::map<int, AppTrackInfo>& apps) const;

 private:
  struct Bin {
    double t = 0.0;  ///< bin close time (k * cadence)
    long arrivals = 0;
    long completions = 0;
    long failures = 0;
    long slo_attained = 0;
    double p99 = 0.0;
    long cold_starts = 0;
    long instances_init = 0;
    long instances_warm = 0;
    long instances_busy = 0;
    long machines_busy = 0;
    long queue_depth = 0;
    double utilization = 0.0;
    double cost_rate = 0.0;
  };

  struct InstanceRec {
    int state = 0;  ///< 0 init, 1 warm, 2 busy
    int machine = -1;
  };

  /// One function's queue: the live depth gauge and its value at every
  /// closed bin (functions appearing mid-run are backfilled with zeros).
  struct FnTrack {
    long depth = 0;
    std::vector<double> series;
  };

  /// One ready-or-executing invocation of a request: its node and the
  /// depth gauge of its function (inside a node of fns_, which never
  /// erases).
  struct QueuedNode {
    int node = 0;
    long* depth = nullptr;
  };

  void advance_to(double t);
  void accumulate(double until);
  void close_bin();
  void remove_instance(const IdTriple& key);
  void machine_add(int machine);
  void machine_remove(int machine);
  void queue_add(int app, int request, int node);
  void queue_erase(int app, int request, int node);
  void queue_strip(int app, int request);

  /// Lossless (app, request) key: both ids in one 64-bit word.
  static std::uint64_t request_key(int app, int request) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(app)) << 32) |
           static_cast<std::uint32_t>(request);
  }

  double cadence_ = 0.0;
  double bin_end_ = 0.0;  ///< close time of the bin currently accumulating
  double last_t_ = 0.0;   ///< time the weighted integrals are advanced to
  bool finalized_ = false;

  // Current gauges (simulation state reconstructed from events).
  long init_ = 0, warm_ = 0, busy_ = 0;
  long busy_machines_ = 0;
  long queue_total_ = 0;
  std::unordered_map<IdTriple, InstanceRec, IdTripleHash> instances_;  ///< (app,node,id)
  std::vector<long> machine_instances_;  ///< live instances per machine id
  /// (app, node) -> its queue; ordered, because the export follows it.
  std::map<std::pair<int, int>, FnTrack> fns_;
  /// (app, request) -> its queued nodes. An entry lives until the request
  /// completes or fails, so a pipeline reuses it for every stage.
  std::unordered_map<std::uint64_t, std::vector<QueuedNode>> queued_;
  std::vector<double> slas_;  ///< by app id; 0 = no SLA

  // Current-bin accumulators.
  Bin cur_;
  std::vector<double> cur_e2e_;
  double active_sec_ = 0.0;  ///< integral of (init+warm+busy) dt in the bin
  double busy_sec_ = 0.0;    ///< integral of busy dt in the bin

  std::vector<Bin> closed_;
};

}  // namespace smiless::obs
