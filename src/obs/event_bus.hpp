#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "obs/event.hpp"

namespace smiless::obs {

/// Synchronous in-simulation event bus. Producers hold a nullable
/// `EventBus*` and publish only when it is non-null, so a disabled run pays
/// one pointer test per site. The bus both retains the event stream (for
/// the exporters, which need ordered replay) and fans out to registered
/// sinks (for online consumers such as the metric registry). A sharded
/// lane's bus has no sinks and is a bare log: the barrier merge hands its
/// prefix to the cell's bus and drops it (obs/merge.hpp).
///
/// Publishing happens strictly from simulation callbacks, which the engine
/// runs single-threaded, so no synchronisation is needed; the recorded order
/// IS the deterministic simulation order.
class EventBus {
 public:
  using Sink = std::function<void(const Event&)>;

  void publish(const Event& event) {
    events_.push_back(event);
    for (const auto& sink : sinks_) sink(event);
  }

  void add_sink(Sink sink) { sinks_.push_back(std::move(sink)); }

  const std::vector<Event>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }

  /// Forget the `n` oldest retained events (sinks are not involved). The
  /// capacity is kept, so a log drained every window stops allocating.
  void drop_front(std::size_t n) {
    events_.erase(events_.begin(), events_.begin() + static_cast<std::ptrdiff_t>(n));
  }

 private:
  std::vector<Event> events_;
  std::vector<Sink> sinks_;
};

}  // namespace smiless::obs
