#pragma once

#include <vector>

#include "obs/audit.hpp"
#include "obs/event_bus.hpp"
#include "obs/telemetry.hpp"

namespace smiless::obs {

/// One lane's contribution to a sharded cell's merged telemetry
/// (DESIGN.md §14). A lane keeps bare logs only — an EventBus with no sinks
/// and an AuditLog — and no registry, series or app names: nothing ever
/// reads a lane's own books, only the merged stream. The lane's Platform
/// published events with *lane-local* ids: app ids are deploy indices inside
/// the lane and machine ids index the lane's private cluster slice.
/// `app_map` and `machine_base` translate both back into the cell's global
/// id spaces. Request and instance ids need no translation — they are scoped
/// per (app, node) by construction, so the app remap alone makes them
/// globally unambiguous.
struct LaneTelemetry {
  EventBus* events = nullptr;  ///< the lane's event log (required)
  AuditLog* audit = nullptr;   ///< the lane's decision log (required)
  const std::vector<int>* app_map = nullptr;  ///< lane-local app id -> global app id
  int machine_base = 0;  ///< global id of the lane's first machine
};

/// Deterministically merge every lane entry with `t < before` into `dst`,
/// which must already have its apps registered under their *global* ids,
/// then drop the merged prefix from each lane log.
///
/// Events are k-way merged by (t, lane index, per-lane order) — each lane's
/// stream is nondecreasing in t, so this is a stable time-merge with the
/// lane index breaking cross-lane ties — and re-published through dst's bus,
/// so dst's online sinks (metric registry, queue-wait bookkeeping, series)
/// observe the merged stream exactly as if one platform had produced it.
/// Audit records merge under the same (t, lane, order) rule with their app
/// field remapped.
///
/// Merging incrementally is exact under one precondition: nothing published
/// to a lane after the call has t < before. ShardedPlatform calls this at
/// every window barrier with `before` = the barrier time, once every lane has
/// stepped to it; lane time is monotone, so later entries all have
/// t >= before and the strict cut never emits an entry that a later one
/// would have preceded (arrivals at exactly the barrier are injected in the
/// next step, which is why the cut is strict). The concatenated output of a
/// sequence of cuts therefore equals one merge with before = +inf, and a
/// lane log holds about one window of entries at a time. The output is a
/// pure function of the lane streams: it is byte-identical at any thread
/// count, and for a single lane with an identity map it reproduces the
/// lane's own stream verbatim.
void merge_lanes(const std::vector<LaneTelemetry>& lanes, Telemetry& dst, double before);

}  // namespace smiless::obs
