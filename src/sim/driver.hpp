#pragma once

#include "common/units.hpp"
#include "sim/clock.hpp"

namespace smiless::sim {

class Engine;

/// A source of externally-injected work (DESIGN.md §16); in practice a
/// sharded lane's serverless::ArrivalSource. Drivers poll `next_time()` to
/// learn when the source next wants to act and call `inject_through(t)` no
/// later than that sim instant; the source then performs every injection
/// due at or before `t` (scheduling engine events at their arrival times,
/// through the Gateway intake). `flush()` injects everything left
/// regardless of time — the end-of-drive tail flush that keeps the
/// scheduled-event tally equal to the window-barrier run's.
class WorkSource {
 public:
  virtual ~WorkSource() = default;

  /// Earliest sim time at which pending work wants injection; +infinity
  /// when the source is drained.
  virtual SimTime next_time() const = 0;

  /// Inject all work due at or before sim time `t` (in source order).
  virtual void inject_through(SimTime t) = 0;

  /// Inject everything remaining, regardless of due time.
  virtual void flush() = 0;
};

/// The driver seam: who pumps the engine's event queue, and against which
/// clock. Extracting this from the engine is what turns "a simulator" into
/// "a serving system with a simulation mode" — the Gateway, scheduler, pool
/// and ledger underneath are identical; only the pump differs. Without a
/// driver, serverless::ShardedPlatform pumps its lanes itself, one window
/// barrier at a time; rt::RealTimeDriver (src/rt/driver.hpp) pumps a lone
/// lane one event batch at a time instead, pacing each batch against a
/// Clock and streaming injections in as their due times arrive.
///
/// Contract: on return (unless the clock interrupted the drive) the
/// engine's clock reads `end` and every event with time <= end has fired.
class Driver {
 public:
  virtual ~Driver() = default;

  virtual const char* name() const = 0;

  /// Pump `engine` to sim time `end`, injecting from `source` (nullable)
  /// no later than each injection's due time.
  virtual void drive(Engine& engine, WorkSource* source, SimTime end) = 0;
};

}  // namespace smiless::sim
