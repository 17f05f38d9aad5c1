#include "rt/driver.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "sim/engine.hpp"

namespace smiless::rt {

RealTimeDriver::RealTimeDriver(sim::Clock* clock) : clock_(clock) {
  SMILESS_CHECK(clock_ != nullptr);
}

void RealTimeDriver::drive(sim::Engine& engine, sim::WorkSource* source, SimTime end) {
  SMILESS_CHECK(end >= engine.now());
  stats_ = DriveStats{};
  clock_->start(engine.now());
  for (;;) {
    const SimTime t_queue = engine.next_time();
    const SimTime t_source =
        source != nullptr ? source->next_time() : std::numeric_limits<double>::infinity();
    const SimTime t_next = std::min(t_queue, t_source);
    if (!(t_next <= end)) break;  // drained within horizon (or both +inf)
    if (!clock_->wait_until(t_next)) {
      stats_.interrupted = true;
      return;  // abandon mid-drive: engine stays at its last fired instant
    }
    if (source != nullptr && t_source <= t_next) {
      source->inject_through(t_next);
      ++stats_.injections;
    }
    // Fire everything at exactly t_next (injections above may have added
    // to the batch); later events wait for their own clock deadline.
    engine.run_until(t_next);
    ++stats_.batches;
  }
  // Tail: flush post-horizon source work and advance the clock to `end`, so
  // the scheduled-event tally and engine.now() match the barrier run.
  if (source != nullptr) source->flush();
  engine.run_until(end);
}

}  // namespace smiless::rt
