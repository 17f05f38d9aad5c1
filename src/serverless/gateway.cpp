#include "serverless/gateway.hpp"

#include "common/check.hpp"
#include "prof/profiler.hpp"
#include "serverless/app_table.hpp"
#include "serverless/instance_pool.hpp"
#include "serverless/ledger.hpp"
#include "serverless/platform_view.hpp"
#include "serverless/request_tracker.hpp"
#include "sim/engine.hpp"

namespace smiless::serverless {

Gateway::Gateway(sim::Engine& engine, const PlatformOptions& options, const AppTable& table,
                 Ledger& ledger)
    : engine_(engine), options_(options), table_(table), ledger_(ledger) {}

void Gateway::wire(Platform* platform, RequestTracker* tracker, InstancePool* pool) {
  platform_ = platform;
  tracker_ = tracker;
  pool_ = pool;
}

Gateway::AppWindows& Gateway::windows(AppId app) {
  SMILESS_CHECK(app >= 0 && static_cast<std::size_t>(app) < apps_.size());
  return apps_[app];
}

void Gateway::add_app() { apps_.emplace_back(); }

int Gateway::add_group(SimTime next_end) {
  const int g = static_cast<int>(groups_.size());
  groups_.push_back({next_end, {}});
  engine_.schedule_at(next_end, [this, g] { walk(g); });
  return g;
}

void Gateway::start(AppId app) {
  AppWindows& w = windows(app);
  SMILESS_CHECK(w.group < 0);
  const SimTime first_end = engine_.now() + options_.window_seconds;
  // Joining is exact: the app's own tick would be queued for the same
  // instant right behind the group's, with nothing queued in between.
  const bool join = joinable_ >= 0 && groups_[joinable_].next_end == first_end &&
                    engine_.watch_quiet(join_ticket_);
  if (!join) {
    joinable_ = add_group(first_end);
    join_ticket_ = engine_.watch(first_end);
  }
  w.group = joinable_;
  groups_[joinable_].members.push_back(app);
}

void Gateway::walk(int g) {
  if (halted_) return;  // engine may still drain ticks after finalize()
  prof::ScopeTimer scope(options_.prof, prof::Site::GatewayWindow);
  joinable_ = -1;  // a start() inside the walk gets a group of its own
  const SimTime end = groups_[g].next_end;
  const SimTime next = end + options_.window_seconds;
  const std::size_t n = groups_[g].members.size();
  std::size_t keep = n;  // members that stay in g
  int owner = g;         // the group the current member ticks with next
  std::uint64_t ticket = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const AppId app = groups_[g].members[i];
    close_window(app, end);
    if (i == 0) {
      // Queued where the first member's own per-app tick would be.
      groups_[g].next_end = next;
      engine_.schedule_at(next, [this, g] { walk(g); });
      ticket = engine_.watch(next);
    } else if (!engine_.watch_quiet(ticket)) {
      // This member's on_window queued something for `next`, which its own
      // tick would have followed: it and the rest move to a later group.
      if (keep == n) keep = i;
      owner = add_group(next);
      ticket = engine_.watch(next);
    }
    if (owner != g) {
      groups_[owner].members.push_back(app);
      apps_[app].group = owner;
    }
  }
  groups_[g].members.resize(keep);
}

void Gateway::close_window(AppId app, SimTime end) {
  AppWindows& w = apps_[app];
  WindowStats stats;
  stats.window_end = end;
  stats.window_start = end - options_.window_seconds;
  stats.arrivals = w.arrivals;
  if (options_.record_windows) {
    WindowSample sample;
    sample.window_start = stats.window_start;
    sample.arrivals = w.arrivals;
    const auto census = pool_->census(app);
    sample.instances_total = census.total;
    sample.instances_cpu = census.cpu;
    sample.instances_gpu = census.gpu;
    ledger_.books(app).windows.push_back(sample);
  }
  w.arrivals = 0;
  PlatformView view(*platform_);
  prof::ScopeTimer solver(options_.prof, prof::Site::PolicyWindow);
  table_.policy(app).on_window(app, table_.spec(app), view, stats);
}

void Gateway::submit(AppId app, SimTime arrival) {
  SMILESS_CHECK(arrival >= engine_.now());
  engine_.schedule_at(arrival, [this, app] { admit(app, false); });
}

void Gateway::admit(AppId app, bool requeued) {
  AppWindows& w = windows(app);
  // An arrival queued before its boundary's tick (every upfront-scheduled
  // arrival at exactly k·w, k >= 2) fires ahead of it. Requeue it once at
  // the same instant: the tick was queued earlier, so it now goes first.
  if (!requeued && w.group >= 0 && engine_.now() >= groups_[w.group].next_end) {
    engine_.schedule_at(engine_.now(), [this, app] { admit(app, true); });
    return;
  }
  ++ledger_.books(app).submitted;
  ++w.arrivals;
  PlatformView view(*platform_);
  table_.policy(app).on_arrival(app, table_.spec(app), view, engine_.now());
  tracker_->admit(app);
}

}  // namespace smiless::serverless
