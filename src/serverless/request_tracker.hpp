#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "dag/dag.hpp"
#include "serverless/tracing.hpp"
#include "serverless/types.hpp"
#include "sim/engine.hpp"

namespace smiless::serverless {

class AppTable;
class FunctionScheduler;
class Ledger;
struct PlatformOptions;

/// Deterministic footprint of request tracking, computed from container
/// sizes and capacities (never from allocator state). Summed over apps, and
/// over lanes for a sharded cell.
struct TrackerMemory {
  std::size_t live_slots = 0;       ///< requests in flight
  std::size_t peak_live_slots = 0;  ///< Σ over apps of each app's in-flight high-water mark
  std::size_t admitted = 0;         ///< requests ever admitted (one index entry each)
  std::size_t slot_bytes = 0;       ///< RequestState slots, their span buffers, free lists
  std::size_t node_bytes = 0;       ///< per-node arrays: pending preds, ready times, timeouts
  std::size_t index_bytes = 0;      ///< the id -> slot indexes

  std::size_t bytes() const { return slot_bytes + node_bytes + index_bytes; }
  TrackerMemory& operator+=(const TrackerMemory& o);
};

/// RequestTracker — the per-request DAG lifecycle. Single responsibility:
/// track each request's progress through its DAG (pending-predecessor
/// counts, the ready set, sink completion), drive the terminal transitions
/// (Completed into the Ledger's books, Failed with queue stripping), arm and
/// service per-invocation timeouts, and record NodeSpan traces. Publishes
/// obs: RequestSubmitted, InvocationReady, TimeoutFired, RequestFailed,
/// RequestCompleted.
///
/// State is held only for live requests: each app keeps a pool of slots that
/// a request takes in admit() and gives back at its terminal transition, and
/// per-node state lives in flat slot-major arrays that keep their capacity.
/// A RequestId stays the app's admission sequence number; a per-app index
/// maps it to its slot while the request is live and to its terminal state
/// (4 bytes) afterwards, so a stale id — a late batch completion, an
/// eviction retry, a timeout — resolves to "terminal", never to the slot's
/// next occupant.
class RequestTracker {
 public:
  RequestTracker(sim::Engine& engine, const PlatformOptions& options, const AppTable& table,
                 Ledger& ledger);

  void wire(FunctionScheduler* scheduler) { scheduler_ = scheduler; }

  /// Register the next app of the AppTable (ids in deploy order).
  void add_app();

  /// Admit one request at the current sim time: take a slot for its DAG
  /// progress state, publish RequestSubmitted, and enqueue the DAG's source
  /// nodes.
  RequestId admit(AppId app);

  /// A node finished for `request`: cancel its timeout, decrement successor
  /// predecessor counts (enqueueing newly ready nodes), and close the
  /// request when its last sink completes. A no-op for a request that
  /// already failed (a batch that was in flight when it did).
  void complete_node(AppId app, dag::NodeId node, RequestId request);

  /// Terminal Failed transition: strip the request from every queue, cancel
  /// its timers, count it. Callers attribute the cause in the per-function
  /// metrics before calling. A no-op for a request already terminal.
  void fail_request(AppId app, RequestId request);

  /// True when the request already reached Completed or Failed.
  bool in_terminal_state(AppId app, RequestId request) const;

  /// Count one re-dispatch of a live request (eviction path); returns the
  /// new per-request retry total.
  int bump_retry(AppId app, RequestId request);

  /// Record one executed NodeSpan for `request` at `node` (tracing mode).
  /// Ignored once the request is terminal: only completed requests keep
  /// their traces.
  void record_span(AppId app, dag::NodeId node, RequestId request, SimTime exec_start,
                   int batch_size);

  /// Cancel all outstanding timeout timers and stop (finalize). Idempotent.
  void finalize();

  /// The footprint of the slots, per-node arrays and id indexes.
  TrackerMemory memory() const;

 private:
  /// Index entries of requests that are no longer live.
  static constexpr std::int32_t kCompleted = -1;
  static constexpr std::int32_t kFailed = -2;

  /// One live request's scalar state; its per-node state sits at
  /// `slot * nodes` in the app's flat arrays.
  struct RequestState {
    SimTime arrival = 0.0;
    std::vector<NodeSpan> spans;  // recorded when tracing is enabled
    int sinks_remaining = 0;
    int retries = 0;  // times any invocation of this request was re-dispatched
    // Set while admit()/complete_node() walk this request's nodes: a failure
    // raised inside the walk leaves the slot to the walker to give back.
    bool walking = false;
  };

  /// One app's requests: the slot pool and the id -> slot index.
  struct AppRequests {
    std::size_t nodes = 0;
    std::vector<int> initial_preds;        // in-degree per node
    std::vector<dag::NodeId> sources;
    int sinks = 0;
    std::vector<RequestState> slots;
    std::vector<int> pending_preds;        // slots × nodes
    std::vector<SimTime> ready_at;         // slots × nodes, with record_traces
    std::vector<sim::EventId> timeout_ev;  // slots × nodes, with a finite timeout
    std::vector<std::int32_t> free;        // LIFO: deterministic reuse order
    std::vector<std::int32_t> index;       // RequestId -> slot, kCompleted or kFailed
  };

  void on_node_ready(AppId app, dag::NodeId node, RequestId request, std::int32_t slot);
  void arm_timeout(AppId app, dag::NodeId node, RequestId request, std::int32_t slot);
  /// Give a terminal request's slot back to its app's pool.
  void release(AppRequests& a, std::int32_t slot);
  AppRequests& app_requests(AppId app);
  const AppRequests& app_requests(AppId app) const;
  /// The request's index entry: its slot while live, else kCompleted/kFailed.
  std::int32_t entry(AppId app, RequestId request) const;
  /// The slot's per-node timeout handles (empty without a finite timeout).
  static std::span<sim::EventId> timeouts(AppRequests& a, std::int32_t slot);

  sim::Engine& engine_;
  const PlatformOptions& options_;
  const AppTable& table_;
  Ledger& ledger_;
  FunctionScheduler* scheduler_ = nullptr;
  std::deque<AppRequests> requests_;  // by AppId
  // Timeouts armed for a request after it failed inside its own node walk:
  // they outlive its slot and are cancelled at finalize (or fire as no-ops).
  std::vector<sim::EventId> orphan_timeouts_;
  bool halted_ = false;
};

}  // namespace smiless::serverless
