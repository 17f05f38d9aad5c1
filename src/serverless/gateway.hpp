#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "serverless/types.hpp"

namespace smiless::sim {
class Engine;
}  // namespace smiless::sim

namespace smiless::serverless {

class AppTable;
class InstancePool;
class Ledger;
class Platform;
class RequestTracker;
struct PlatformOptions;

/// Gateway — arrival intake and the window ticker. Single responsibility:
/// accept request submissions, count arrivals per counting window (§IV-B:
/// "a specified time window, which is set to one second"), optionally
/// snapshot a WindowSample into the Ledger at each boundary
/// (PlatformOptions::record_windows), and deliver WindowStats to the
/// policy. Publishes obs: RequestSubmitted is published downstream by the
/// RequestTracker it admits into; the Gateway itself publishes nothing.
///
/// Windows are half-open, [k·w, (k+1)·w) from each app's deploy instant:
/// an arrival at exactly a boundary is counted after that boundary's tick.
///
/// Ticks are grouped (DESIGN.md §18): apps whose per-app ticks would fire
/// back to back at every boundary share one engine event that walks them
/// in start order and reschedules itself once per window.
class Gateway {
 public:
  Gateway(sim::Engine& engine, const PlatformOptions& options, const AppTable& table,
          Ledger& ledger);

  /// Late binding of the collaborators (the facade wires the cycle).
  void wire(Platform* platform, RequestTracker* tracker, InstancePool* pool);

  /// Open the books for a newly deployed app.
  void add_app();
  /// Start the app's window ticks; its first window started at this
  /// instant (called after Policy::on_deploy so the deploy-time plan
  /// installation precedes any window event). The app joins the tick group
  /// of an app started at this same instant when nothing was queued for
  /// their first boundary in between; otherwise it gets a group of its own.
  void start(AppId app);

  /// Schedule a user request for `app` at absolute time `arrival`.
  void submit(AppId app, SimTime arrival);

  /// Stop ticking (finalize). Idempotent.
  void halt() { halted_ = true; }

 private:
  struct AppWindows {
    int arrivals = 0;  ///< arrivals in the open window
    int group = -1;    ///< tick group; -1 until start()
  };
  /// Apps sharing one tick event, in start order.
  struct TickGroup {
    SimTime next_end = 0.0;  ///< the boundary the pending event closes
    std::vector<AppId> members;
  };

  /// New empty group whose event fires at `next_end`.
  int add_group(SimTime next_end);
  /// One group's boundary: close every member's window, in start order.
  void walk(int group);
  void close_window(AppId app, SimTime end);
  /// The arrival event body; `requeued` marks the second pass of an
  /// arrival that fired ahead of its boundary's tick.
  void admit(AppId app, bool requeued);
  AppWindows& windows(AppId app);

  sim::Engine& engine_;
  const PlatformOptions& options_;
  const AppTable& table_;
  Ledger& ledger_;
  Platform* platform_ = nullptr;
  RequestTracker* tracker_ = nullptr;
  InstancePool* pool_ = nullptr;
  std::vector<AppWindows> apps_;  // by AppId
  std::vector<TickGroup> groups_;
  /// The group the last start() opened, and the engine watch ticket aimed
  /// at its first boundary: a later start() may join it while that watch
  /// is still aimed there and has seen nothing queued for that instant.
  int joinable_ = -1;
  std::uint64_t join_ticket_ = 0;
  bool halted_ = false;
};

}  // namespace smiless::serverless
