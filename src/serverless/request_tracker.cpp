#include "serverless/request_tracker.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "obs/event_bus.hpp"
#include "serverless/app_table.hpp"
#include "serverless/function_scheduler.hpp"
#include "serverless/ledger.hpp"
#include "serverless/platform.hpp"

namespace smiless::serverless {

using obs::EventType;

TrackerMemory& TrackerMemory::operator+=(const TrackerMemory& o) {
  live_slots += o.live_slots;
  peak_live_slots += o.peak_live_slots;
  admitted += o.admitted;
  slot_bytes += o.slot_bytes;
  node_bytes += o.node_bytes;
  index_bytes += o.index_bytes;
  return *this;
}

RequestTracker::RequestTracker(sim::Engine& engine, const PlatformOptions& options,
                               const AppTable& table, Ledger& ledger)
    : engine_(engine), options_(options), table_(table), ledger_(ledger) {}

void RequestTracker::add_app() {
  const dag::Dag& dag = table_.spec(static_cast<AppId>(requests_.size())).dag;
  AppRequests& a = requests_.emplace_back();
  a.nodes = dag.size();
  a.initial_preds.resize(a.nodes);
  for (std::size_t n = 0; n < a.nodes; ++n)
    a.initial_preds[n] = static_cast<int>(dag.in_degree(static_cast<dag::NodeId>(n)));
  a.sources = dag.sources();
  a.sinks = static_cast<int>(dag.sinks().size());
}

RequestTracker::AppRequests& RequestTracker::app_requests(AppId app) {
  SMILESS_CHECK(app >= 0 && static_cast<std::size_t>(app) < requests_.size());
  return requests_[app];
}

const RequestTracker::AppRequests& RequestTracker::app_requests(AppId app) const {
  SMILESS_CHECK(app >= 0 && static_cast<std::size_t>(app) < requests_.size());
  return requests_[app];
}

std::int32_t RequestTracker::entry(AppId app, RequestId request) const {
  const auto& index = app_requests(app).index;
  SMILESS_CHECK(request >= 0 && static_cast<std::size_t>(request) < index.size());
  return index[request];
}

std::span<sim::EventId> RequestTracker::timeouts(AppRequests& a, std::int32_t slot) {
  if (a.timeout_ev.empty()) return {};
  return {a.timeout_ev.data() + static_cast<std::size_t>(slot) * a.nodes, a.nodes};
}

RequestId RequestTracker::admit(AppId app) {
  auto& a = app_requests(app);
  std::int32_t slot;
  if (!a.free.empty()) {
    slot = a.free.back();
    a.free.pop_back();
  } else {
    slot = static_cast<std::int32_t>(a.slots.size());
    a.slots.emplace_back();
    a.pending_preds.resize(a.pending_preds.size() + a.nodes);
    if (options_.record_traces) a.ready_at.resize(a.ready_at.size() + a.nodes);
    if (std::isfinite(options_.request_timeout))
      a.timeout_ev.resize(a.timeout_ev.size() + a.nodes);
  }
  const std::size_t base = static_cast<std::size_t>(slot) * a.nodes;
  std::copy(a.initial_preds.begin(), a.initial_preds.end(), a.pending_preds.begin() + base);
  if (options_.record_traces) std::fill_n(a.ready_at.begin() + base, a.nodes, 0.0);
  RequestState& r = a.slots[slot];
  r.arrival = engine_.now();
  r.sinks_remaining = a.sinks;
  r.retries = 0;
  const auto ridx = static_cast<RequestId>(a.index.size());
  a.index.push_back(slot);
  if (options_.bus != nullptr)
    options_.bus->publish({.t = engine_.now(),
                           .app = app,
                           .request = ridx,
                           .type = EventType::RequestSubmitted});

  r.walking = true;
  for (dag::NodeId src : a.sources) on_node_ready(app, src, ridx, slot);
  a.slots[slot].walking = false;
  if (a.index[ridx] < 0) release(a, slot);  // failed while enqueueing its sources
  return ridx;
}

void RequestTracker::on_node_ready(AppId app, dag::NodeId node, RequestId request,
                                   std::int32_t slot) {
  auto& a = requests_[app];
  if (options_.record_traces)
    a.ready_at[static_cast<std::size_t>(slot) * a.nodes + node] = engine_.now();
  if (options_.bus != nullptr)
    options_.bus->publish({.t = engine_.now(),
                           .app = app,
                           .node = node,
                           .request = request,
                           .type = EventType::InvocationReady});
  arm_timeout(app, node, request, slot);
  scheduler_->enqueue(app, node, request);
}

void RequestTracker::arm_timeout(AppId app, dag::NodeId node, RequestId request,
                                 std::int32_t slot) {
  if (!std::isfinite(options_.request_timeout)) return;
  auto& a = requests_[app];
  sim::EventId& ev = a.timeout_ev[static_cast<std::size_t>(slot) * a.nodes + node];
  if (ev != 0) return;  // deadline set at first readiness
  ev = engine_.schedule_after(options_.request_timeout, [this, app, node, request] {
    if (halted_) return;
    const std::int32_t s = entry(app, request);
    if (s < 0) return;  // a timeout armed after the request failed
    auto& aa = requests_[app];
    aa.timeout_ev[static_cast<std::size_t>(s) * aa.nodes + node] = 0;
    ++ledger_.fn(app, node).timeouts;
    if (options_.bus != nullptr)
      options_.bus->publish({.t = engine_.now(),
                             .app = app,
                             .node = node,
                             .request = request,
                             .type = EventType::TimeoutFired});
    fail_request(app, request);
  });
}

void RequestTracker::release(AppRequests& a, std::int32_t slot) {
  RequestState& r = a.slots[slot];
  r.spans.clear();
  for (sim::EventId& ev : timeouts(a, slot)) {
    if (ev != 0) orphan_timeouts_.push_back(ev);
    ev = 0;
  }
  a.free.push_back(slot);
}

void RequestTracker::fail_request(AppId app, RequestId request) {
  auto& a = app_requests(app);
  const std::int32_t slot = entry(app, request);
  if (slot < 0) return;
  a.index[request] = kFailed;
  ++ledger_.books(app).failed;
  RequestState& r = a.slots[slot];
  if (options_.bus != nullptr)
    options_.bus->publish({.t = engine_.now(),
                           .t2 = r.arrival,
                           .app = app,
                           .request = request,
                           .type = EventType::RequestFailed});
  for (sim::EventId& ev : timeouts(a, slot)) {
    if (ev != 0) {
      engine_.cancel(ev);
      ev = 0;
    }
  }
  // Strip every queued (not yet executing) invocation of this request; a
  // batch already in flight finishes and is ignored by complete_node.
  scheduler_->strip_request(app, request);
  if (!r.walking) release(a, slot);
}

bool RequestTracker::in_terminal_state(AppId app, RequestId request) const {
  return entry(app, request) < 0;
}

int RequestTracker::bump_retry(AppId app, RequestId request) {
  const std::int32_t slot = entry(app, request);
  SMILESS_CHECK_MSG(slot >= 0, "retry of terminal request " << request << " of app " << app);
  return ++requests_[app].slots[slot].retries;
}

void RequestTracker::record_span(AppId app, dag::NodeId node, RequestId request,
                                 SimTime exec_start, int batch_size) {
  const std::int32_t slot = entry(app, request);
  if (slot < 0) return;
  auto& a = requests_[app];
  RequestState& r = a.slots[slot];
  NodeSpan span;
  span.node = node;
  span.ready = a.ready_at[static_cast<std::size_t>(slot) * a.nodes + node];
  span.start = exec_start;
  span.end = engine_.now();
  span.batch = batch_size;
  span.cold = span.wait() > 1e-6;
  span.attempt = r.retries;
  r.spans.push_back(span);
}

void RequestTracker::complete_node(AppId app, dag::NodeId node, RequestId request) {
  const std::int32_t slot = entry(app, request);
  if (slot == kFailed) return;  // late completion of a batch holding a failed request
  SMILESS_CHECK(slot >= 0);
  auto& a = requests_[app];
  const std::size_t base = static_cast<std::size_t>(slot) * a.nodes;
  if (!a.timeout_ev.empty() && a.timeout_ev[base + node] != 0) {
    engine_.cancel(a.timeout_ev[base + node]);
    a.timeout_ev[base + node] = 0;
  }

  const auto& spec = table_.spec(app);
  a.slots[slot].walking = true;
  for (dag::NodeId s : spec.dag.successors(node)) {
    if (--a.pending_preds[base + s] == 0) on_node_ready(app, s, request, slot);
  }
  RequestState& r = a.slots[slot];
  r.walking = false;
  if (a.index[request] < 0) {  // failed while enqueueing a successor
    release(a, slot);
    return;
  }
  if (spec.dag.out_degree(node) == 0 && --r.sinks_remaining == 0) {
    a.index[request] = kCompleted;
    ledger_.books(app).completed.push_back({r.arrival, engine_.now()});
    if (options_.bus != nullptr)
      options_.bus->publish({.t = engine_.now(),
                             .t2 = r.arrival,
                             .app = app,
                             .request = request,
                             .type = EventType::RequestCompleted});
    if (options_.record_traces)
      ledger_.books(app).traces.push_back({r.arrival, engine_.now(), std::move(r.spans)});
    release(a, slot);
  }
}

void RequestTracker::finalize() {
  halted_ = true;
  // Outstanding per-invocation timeout timers die with the run. Free slots
  // hold no timer, so walking the pools visits the live requests only.
  for (auto& a : requests_)
    for (auto& ev : a.timeout_ev)
      if (ev != 0) {
        engine_.cancel(ev);
        ev = 0;
      }
  for (const sim::EventId ev : orphan_timeouts_) engine_.cancel(ev);  // fired ones: no-op
  orphan_timeouts_.clear();
}

TrackerMemory RequestTracker::memory() const {
  TrackerMemory m;
  m.slot_bytes = requests_.size() * sizeof(AppRequests);
  for (const auto& a : requests_) {
    m.live_slots += a.slots.size() - a.free.size();
    m.peak_live_slots += a.slots.size();
    m.admitted += a.index.size();
    m.slot_bytes += a.slots.capacity() * sizeof(RequestState) +
                    a.free.capacity() * sizeof(std::int32_t);
    for (const auto& r : a.slots) m.slot_bytes += r.spans.capacity() * sizeof(NodeSpan);
    m.node_bytes += a.initial_preds.capacity() * sizeof(int) +
                    a.sources.capacity() * sizeof(dag::NodeId) +
                    a.pending_preds.capacity() * sizeof(int) +
                    a.ready_at.capacity() * sizeof(SimTime) +
                    a.timeout_ev.capacity() * sizeof(sim::EventId);
    m.index_bytes += a.index.capacity() * sizeof(std::int32_t);
  }
  m.node_bytes += orphan_timeouts_.capacity() * sizeof(sim::EventId);
  return m;
}

}  // namespace smiless::serverless
