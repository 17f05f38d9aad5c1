#pragma once

#include <deque>
#include <vector>

#include "common/units.hpp"
#include "serverless/types.hpp"
#include "sim/driver.hpp"
#include "workload/arrival_cursor.hpp"

namespace smiless::serverless {

class Platform;

/// The one arrival-injection path (DESIGN.md §14, §16): a sim::WorkSource
/// over the recorded arrival sequences of the apps deployed on one Platform.
/// Each app's sequence is walked by a workload::ArrivalCursor, and every
/// arrival enters through Platform::submit_request, the Gateway intake.
///
/// Every ShardedPlatform lane owns one. The window barrier injects strictly
/// before each barrier (inject_before); a pacing sim::Driver injects each
/// arrival once its clock reaches it (inject_through); the end of a run
/// flushes the post-horizon tail (flush). Apps drain in the order they were
/// added, so arrivals due at the same instant are submitted in deploy order
/// however the timeline is sliced.
class ArrivalSource final : public sim::WorkSource {
 public:
  explicit ArrivalSource(Platform& platform) : platform_(&platform) {}

  ArrivalSource(const ArrivalSource&) = delete;
  ArrivalSource& operator=(const ArrivalSource&) = delete;

  /// Add the arrivals (sorted ascending, absolute sim times) of an app
  /// already deployed on the platform.
  void add(AppId app, std::vector<SimTime> arrivals);

  SimTime next_time() const override;
  void inject_through(SimTime t) override;
  void flush() override;

  /// Inject every arrival strictly before `limit`: the window barrier's cut.
  /// An arrival at exactly a barrier belongs to the window the barrier opens
  /// and is injected by the next step.
  void inject_before(SimTime limit);

 private:
  struct Stream {
    AppId app = 0;
    std::vector<SimTime> arrivals;
    workload::ArrivalCursor cursor;  ///< points into `arrivals`
  };

  Platform* platform_;          ///< not owned
  std::deque<Stream> streams_;  ///< a deque: cursors need stable addresses
};

}  // namespace smiless::serverless
