#pragma once

#include <cstdint>
#include <functional>

#include "common/check.hpp"
#include "common/units.hpp"
#include "sim/calendar_queue.hpp"

namespace smiless::prof {
class Profiler;
}

namespace smiless::sim {

/// Lifetime counters over an Engine's event queue, surfaced through the
/// observability metric registry. Pure simulation-domain tallies: the
/// schedule/fire/cancel history, not how the queue stores it.
struct EngineStats {
  std::uint64_t scheduled = 0;
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
};

/// Discrete-event simulation engine: a clock plus an ordered queue of
/// cancellable callbacks. Events at the same timestamp fire in scheduling
/// order, which makes whole experiments deterministic.
///
/// The queue behind the clock is the calendar queue (O(1) amortized, with
/// slab-allocated nodes and inline callbacks). Its ordering contract is
/// specified by sim::ReferenceQueue, the original priority_queue +
/// std::map pair, which the differential fuzz (tests/calendar_queue_test.cpp)
/// and the throughput bench's hold-model micro drive side by side with it;
/// the Engine itself never uses the reference.
class Engine {
 public:
  using Callback = std::function<void()>;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `cb` at absolute sim time `t` (>= now). Returns a handle
  /// usable with cancel(); the ContainerManager relies on this for pre-warm
  /// and keep-alive timers.
  EventId schedule_at(SimTime t, Callback cb);

  /// Schedule `cb` after `delay` seconds (>= 0).
  EventId schedule_after(double delay, Callback cb) {
    SMILESS_CHECK(delay >= 0.0);
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Cancel a pending event; returns false if it already fired or was
  /// cancelled.
  bool cancel(EventId id);

  /// Run events until the queue is empty or the clock would pass `end`;
  /// leaves now() == end when it drains early.
  void run_until(SimTime end);

  /// Run until the queue drains completely.
  void run();

  /// Live pending events; cancelled (tombstoned) events are excluded.
  std::size_t pending() const { return calendar_.live(); }

  /// Sim time of the earliest live pending event, or +infinity when the
  /// queue is empty. Non-const because the queue reclaims tombstones on the
  /// way to the head — a trajectory-neutral side effect. This is
  /// the peek pacing drivers (DESIGN.md §16) use to decide how long to
  /// wait before the next batch; the DES pump never calls it.
  SimTime next_time() { return calendar_.next_time(); }

  const EngineStats& stats() const { return stats_; }

  /// Calendar internals (resizes, searches, footprint) for diagnostics.
  const CalendarStats& calendar_stats() const { return calendar_.stats(); }

  /// Attach (or detach, with nullptr) the runtime self-profiler. When set,
  /// run_until/schedule_at/cancel record wall-time scopes and the engine
  /// samples its internal stats (live events, EngineStats, CalendarStats)
  /// as deterministic sim-time counters every kSampleInterval fired events.
  /// Null means zero overhead beyond one pointer test per call.
  void set_profiler(prof::Profiler* p) { prof_ = p; }
  prof::Profiler* profiler() const { return prof_; }

  /// Counter-sampling cadence in fired events (power of two; the sample
  /// points depend only on the trajectory, never on the wall clock).
  static constexpr std::uint64_t kSampleInterval = 1ull << 14;

  /// Same-instant watch (DESIGN.md §18). watch(t) aims the engine's one
  /// watch at time `t` and returns a ticket; watch_quiet(ticket) is true
  /// while that watch is still aimed there (no later watch() call) and no
  /// event has been scheduled for exactly `t` since. The grouped window
  /// ticker uses it to learn whether anything was queued between two ticks
  /// it wants to share one event. Costs one compare per schedule_at;
  /// never changes the trajectory.
  std::uint64_t watch(SimTime t) {
    watch_time_ = t;
    watch_hits_ = 0;
    return ++watch_ticket_;
  }
  bool watch_quiet(std::uint64_t ticket) const {
    return ticket == watch_ticket_ && watch_hits_ == 0;
  }

 private:
  void sample_counters(SimTime t);

  SimTime now_ = 0.0;
  EventId next_id_ = 1;
  EngineStats stats_;
  CalendarQueue calendar_;
  prof::Profiler* prof_ = nullptr;  ///< optional self-profiler (not owned)
  SimTime watch_time_ = -1.0;  ///< no event is ever scheduled before 0
  std::uint64_t watch_hits_ = 0;
  std::uint64_t watch_ticket_ = 0;
};

}  // namespace smiless::sim
