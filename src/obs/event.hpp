#pragma once

/// Structured event vocabulary for the observability subsystem.
///
/// Producers (Platform, FaultInjector, policies) publish plain-data Event
/// records through a nullable EventBus pointer; with no bus attached the
/// publish site is a single branch, so simulation trajectories are identical
/// whether observability is on or off. Every field is simulation-domain data
/// (sim seconds, entity ids) — no wall-clock values ever enter an Event, which
/// is what keeps exported artifacts byte-stable across thread counts.

#include <cstddef>
#include <cstdint>

namespace smiless::obs {

enum class EventType {
  RequestSubmitted,
  RequestCompleted,
  RequestFailed,
  InvocationReady,
  InvocationDone,
  BatchStart,
  BatchEnd,
  InstanceCreated,
  InstanceReady,
  InstanceInitFailed,
  InstanceTerminated,
  InstanceEvicted,
  MachineUp,
  MachineDown,
  PrewarmFired,
  PrewarmSkipped,
  RetryScheduled,
  TimeoutFired,
  StragglerInjected,
};

inline constexpr std::size_t kEventTypeCount =
    static_cast<std::size_t>(EventType::StragglerInjected) + 1;

/// Stable lower-snake name for an event type (used as metric keys and in the
/// exported JSON, so renames are format changes).
const char* event_type_name(EventType type);

/// One simulation event. Meaning of the generic fields per type:
///  - t   is always the simulation time the event was published.
///  - t2  is a second timestamp where the event closes an interval
///        (e.g. InstanceReady.t2 = creation time, RequestCompleted.t2 =
///        arrival time, BatchEnd.t2 = execution start).
///  - value carries a duration or magnitude (sampled init time, retry
///        backoff delay, straggler inflation factor).
///  - count carries a small integer (batch size, retry attempt number).
/// Unused fields stay at their defaults.
struct Event {
  // Doubles, then ints, then the type: 52 bytes of fields pack into 56, not
  // the 64 a leading 4-byte type would pad to. Publish sites list their
  // designated initializers in this order.
  double t = 0.0;
  double t2 = 0.0;
  double value = 0.0;
  int app = -1;
  int node = -1;
  int request = -1;
  int instance = -1;
  int machine = -1;
  int count = 0;
  EventType type = EventType::RequestSubmitted;
};
static_assert(sizeof(Event) <= 56, "obs::Event grew past 56 bytes");

/// An exact id triple — (app, node, request) or (app, node, instance) — as
/// a hash-map key for the online sinks. Equality compares all three ids, so
/// no packing can make two live keys collide.
struct IdTriple {
  int a = 0;
  int b = 0;
  int c = 0;
  bool operator==(const IdTriple&) const = default;
};

struct IdTripleHash {
  std::size_t operator()(const IdTriple& k) const noexcept {
    // splitmix64 finalizer over the three ids.
    std::uint64_t z = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.a)) << 32) ^
                      static_cast<std::uint32_t>(k.b);
    z ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.c)) * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }
};

}  // namespace smiless::obs
