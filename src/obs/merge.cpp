#include "obs/merge.hpp"

#include <cstddef>

#include "common/check.hpp"

namespace smiless::obs {

namespace {

int remap_app(const std::vector<int>* app_map, int app) {
  if (app < 0 || app_map == nullptr) return app;
  SMILESS_CHECK(static_cast<std::size_t>(app) < app_map->size());
  return (*app_map)[app];
}

/// K-way merge of the lanes' `t < before` prefixes: `log(l)` is lane l's
/// entry vector, `emit(l, entry)` consumes one entry. Returns how many
/// entries each lane gave up, so the caller can drop them.
template <typename Log, typename Emit>
std::vector<std::size_t> merge_prefix(std::size_t lanes, double before, Log&& log,
                                      Emit&& emit) {
  std::vector<std::size_t> cursor(lanes, 0);
  for (;;) {
    std::size_t best = lanes;
    double best_t = before;
    for (std::size_t l = 0; l < lanes; ++l) {
      const auto& entries = log(l);
      if (cursor[l] >= entries.size()) continue;
      const double t = entries[cursor[l]].t;
      if (t < best_t) {  // strict: on a tie the lowest lane index wins
        best_t = t;
        best = l;
      }
    }
    if (best == lanes) return cursor;
    emit(best, log(best)[cursor[best]++]);
  }
}

}  // namespace

void merge_lanes(const std::vector<LaneTelemetry>& lanes, Telemetry& dst, double before) {
  for (const auto& lane : lanes) SMILESS_CHECK(lane.events != nullptr && lane.audit != nullptr);

  const std::vector<std::size_t> events = merge_prefix(
      lanes.size(), before, [&](std::size_t l) -> const auto& { return lanes[l].events->events(); },
      [&](std::size_t l, Event e) {
        e.app = remap_app(lanes[l].app_map, e.app);
        if (e.machine >= 0) e.machine += lanes[l].machine_base;
        dst.bus().publish(e);
      });
  const std::vector<std::size_t> records = merge_prefix(
      lanes.size(), before, [&](std::size_t l) -> const auto& { return lanes[l].audit->records(); },
      [&](std::size_t l, DecisionRecord rec) {
        rec.app = remap_app(lanes[l].app_map, rec.app);
        dst.audit().record(std::move(rec));
      });

  for (std::size_t l = 0; l < lanes.size(); ++l) {
    lanes[l].events->drop_front(events[l]);
    lanes[l].audit->drop_front(records[l]);
  }
}

}  // namespace smiless::obs
