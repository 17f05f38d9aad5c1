#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "sim/driver.hpp"

namespace smiless::rt {

/// Tallies from one RealTimeDriver::drive, for serve reports and tests.
struct DriveStats {
  std::uint64_t batches = 0;     ///< event batches pumped (distinct instants)
  std::uint64_t injections = 0;  ///< inject_through calls that were due
  bool interrupted = false;      ///< clock stopped the drive before `end`
};

/// The live-serving driver (DESIGN.md §16): pumps a lane's engine event
/// queue one sim instant at a time, pacing each instant against a Clock and
/// streaming WorkSource injections in no later than their due times. With
/// sim::ImmediateClock this is an alternate DES pump; with rt::WallClock it
/// is a serving loop.
///
/// Per the Clock contract (the clock only delays, never reorders), the sim
/// trajectory produced here matches the window-barrier run of the same
/// cell: same request terminal states, same ledger totals, same event
/// counts. The equivalence suite in tests/rt_test.cpp holds the two pumps
/// to that.
class RealTimeDriver final : public sim::Driver {
 public:
  /// `clock` must outlive the driver. Not owned.
  explicit RealTimeDriver(sim::Clock* clock);

  const char* name() const override { return "realtime"; }

  /// Pump `engine` to `end`. Each iteration picks the earlier of the
  /// engine's next event and the source's next injection, waits for the
  /// clock to reach that instant, injects anything due, and fires the
  /// batch. If the clock interrupts, returns early with the engine clock
  /// wherever it got to (stats().interrupted is set); otherwise finishes
  /// with a tail flush so the scheduled-event tally matches the barrier run
  /// even if the source still holds post-horizon arrivals.
  void drive(sim::Engine& engine, sim::WorkSource* source, SimTime end) override;

  const DriveStats& stats() const { return stats_; }

 private:
  sim::Clock* clock_;  ///< not owned
  DriveStats stats_;
};

}  // namespace smiless::rt
