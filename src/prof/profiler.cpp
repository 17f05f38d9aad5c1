#include "prof/profiler.hpp"

#include "common/units.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <utility>

namespace smiless::prof {

std::uint64_t now_ns() {
  // Self-profiler quarantine: the one sanctioned monotonic read. Its output
  // goes only to --profile-out / --report-out / bench JSON, never into any
  // golden-compared artifact.
  const auto now =  // detlint:allow(wall-clock) quarantined self-profiler clock read
      std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
}

const char* site_name(Site s) {
  switch (s) {
    case Site::CellRun: return "cell/run";
    case Site::EngineRun: return "engine/run";
    case Site::EngineSchedule: return "engine/schedule";
    case Site::EngineCancel: return "engine/cancel";
    case Site::GatewayWindow: return "gateway/window_tick";
    case Site::PolicyWindow: return "policy/on_window";
    case Site::Dispatch: return "scheduler/dispatch";
    case Site::PoolCreate: return "pool/create_instance";
    case Site::PoolBatchDone: return "pool/on_batch_done";
    case Site::LaneStep: return "shard/lane_step";
    case Site::ShardBarrier: return "shard/barrier";
    case Site::ShardMerge: return "shard/merge";
    case Site::Finalize: return "cell/finalize";
    case Site::kCount: break;
  }
  return "?";
}

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::EngineLive: return "engine/live";
    case Counter::EngineScheduled: return "engine/scheduled";
    case Counter::EngineFired: return "engine/fired";
    case Counter::EngineCancelled: return "engine/cancelled";
    case Counter::CalendarBuckets: return "calendar/buckets";
    case Counter::CalendarResizes: return "calendar/resizes";
    case Counter::CalendarDirectSearches: return "calendar/direct_searches";
    case Counter::SliceLive: return "slices/live";
    case Counter::SliceBlocks: return "slices/blocks";
    case Counter::kCount: break;
  }
  return "?";
}

namespace {

void add_sites(std::array<SiteAgg, kSiteCount>& dst,
               const std::array<SiteAgg, kSiteCount>& src) {
  for (std::size_t i = 0; i < kSiteCount; ++i) {
    dst[i].count += src[i].count;
    dst[i].inclusive_ns += src[i].inclusive_ns;
    dst[i].exclusive_ns += src[i].exclusive_ns;
  }
}

bool all_zero(const std::array<SiteAgg, kSiteCount>& sites) {
  for (const SiteAgg& a : sites)
    if (a.count != 0) return false;
  return true;
}

json::Value sites_json(const std::array<SiteAgg, kSiteCount>& sites) {
  json::Value arr = json::Value::array();
  for (std::size_t i = 0; i < kSiteCount; ++i) {
    const SiteAgg& a = sites[i];
    if (a.count == 0) continue;
    json::Value v = json::Value::object();
    v["site"] = std::string(site_name(static_cast<Site>(i)));
    v["count"] = static_cast<long long>(a.count);
    v["inclusive_ms"] = static_cast<double>(a.inclusive_ns) / kNanosPerMilli;
    v["exclusive_ms"] = static_cast<double>(a.exclusive_ns) / kNanosPerMilli;
    arr.push_back(std::move(v));
  }
  return arr;
}

}  // namespace

void Profiler::merge(const Profiler& other) {
  // The *donor* must be idle (its open frames would be lost); the
  // destination may legitimately have its root scope open — lanes merge
  // into the cell profiler while Site::CellRun is still on its stack.
  SMILESS_CHECK_MSG(other.depth_ == 0, "merge from a profiler with open scopes");
  add_sites(sites_, other.sites_);
  // File the donor's own totals under its lane id, then adopt any per-lane
  // breakdown it already accumulated — merge(merge(a,b),c) == merge over
  // any grouping.
  auto lane_slot = [this](int lane) -> LaneAgg& {
    auto it = std::find_if(lanes_.begin(), lanes_.end(),
                           [lane](const LaneAgg& la) { return la.lane == lane; });
    if (it != lanes_.end()) return *it;
    lanes_.push_back(LaneAgg{lane, {}});
    std::sort(lanes_.begin(), lanes_.end(),
              [](const LaneAgg& a, const LaneAgg& b) { return a.lane < b.lane; });
    return *std::find_if(lanes_.begin(), lanes_.end(),
                         [lane](const LaneAgg& la) { return la.lane == lane; });
  };
  if (!all_zero(other.sites_)) {
    // Subtract the donor's already-filed lane breakdown from its own slot so
    // nothing double-counts: its top-level sites_ includes merged children.
    std::array<SiteAgg, kSiteCount> own = other.sites_;
    for (const LaneAgg& la : other.lanes_) {
      for (std::size_t i = 0; i < kSiteCount; ++i) {
        own[i].count -= la.sites[i].count;
        own[i].inclusive_ns -= la.sites[i].inclusive_ns;
        own[i].exclusive_ns -= la.sites[i].exclusive_ns;
      }
    }
    if (!all_zero(own)) add_sites(lane_slot(other.lane_).sites, own);
  }
  for (const LaneAgg& la : other.lanes_) add_sites(lane_slot(la.lane).sites, la.sites);
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
}

Snapshot Profiler::snapshot() const {
  Snapshot s;
  s.sites = sites_;
  s.root_ns = root_ns();
  return s;
}

json::Value snapshot_to_json(const Snapshot& s) {
  json::Value doc = json::Value::object();
  doc["sites"] = sites_json(s.sites);
  std::uint64_t exclusive_sum = 0;
  for (const SiteAgg& a : s.sites) exclusive_sum += a.exclusive_ns;
  doc["total_ms"] = static_cast<double>(s.root_ns) / kNanosPerMilli;
  if (s.root_ns > 0)
    doc["coverage"] = static_cast<double>(exclusive_sum) / static_cast<double>(s.root_ns);
  return doc;
}

json::Value Profiler::to_json() const {
  json::Value doc = json::Value::object();
  doc["sites"] = sites_json(sites_);

  std::uint64_t exclusive_sum = 0;
  for (const SiteAgg& a : sites_) exclusive_sum += a.exclusive_ns;
  doc["total_ms"] = static_cast<double>(root_ns()) / kNanosPerMilli;
  if (root_ns() > 0)
    doc["coverage"] = static_cast<double>(exclusive_sum) / static_cast<double>(root_ns());

  json::Value lanes = json::Value::array();
  for (const LaneAgg& la : lanes_) {
    json::Value v = json::Value::object();
    v["lane"] = static_cast<long long>(la.lane);
    v["sites"] = sites_json(la.sites);
    lanes.push_back(std::move(v));
  }
  doc["lanes"] = std::move(lanes);

  // Counter samples grouped by (counter, lane) in catalog/lane order. The
  // (sim_t, value) pairs themselves are deterministic; only their presence
  // depends on profiling being enabled.
  json::Value counters = json::Value::array();
  std::map<std::pair<int, int>, std::vector<const CounterSample*>> grouped;
  for (const CounterSample& cs : samples_)
    grouped[{cs.counter, cs.lane}].push_back(&cs);
  for (const auto& [key, rows] : grouped) {
    json::Value v = json::Value::object();
    v["name"] = std::string(counter_name(static_cast<Counter>(key.first)));
    v["lane"] = static_cast<long long>(key.second);
    json::Value pts = json::Value::array();
    for (const CounterSample* cs : rows) {
      json::Value pt = json::Value::array();
      pt.push_back(json::Value(cs->sim_t));
      pt.push_back(json::Value(cs->value));
      pts.push_back(std::move(pt));
    }
    v["samples"] = std::move(pts);
    counters.push_back(std::move(v));
  }
  doc["counters"] = std::move(counters);
  return doc;
}

json::Value Profiler::perfetto_events(int pid) const {
  json::Value events = json::Value::array();

  json::Value meta = json::Value::object();
  meta["ph"] = std::string("M");
  meta["pid"] = static_cast<long long>(pid);
  meta["name"] = std::string("process_name");
  json::Value margs = json::Value::object();
  margs["name"] = std::string("self-profiler");
  meta["args"] = std::move(margs);
  events.push_back(std::move(meta));

  // Counter tracks on the sim-time axis (seconds -> trace microseconds),
  // one named track per (counter, lane).
  std::map<std::pair<int, int>, std::vector<const CounterSample*>> grouped;
  for (const CounterSample& cs : samples_)
    grouped[{cs.counter, cs.lane}].push_back(&cs);
  for (const auto& [key, rows] : grouped) {
    std::string name = counter_name(static_cast<Counter>(key.first));
    if (key.second >= 0) name += "/lane" + std::to_string(key.second);
    for (const CounterSample* cs : rows) {
      json::Value ev = json::Value::object();
      ev["ph"] = std::string("C");
      ev["pid"] = static_cast<long long>(pid);
      ev["name"] = name;
      ev["ts"] = cs->sim_t * kMicrosPerSecond;
      json::Value args = json::Value::object();
      args["value"] = cs->value;
      ev["args"] = std::move(args);
      events.push_back(std::move(ev));
    }
  }

  // Per-site wall-time summary slices: one thread row per site, a single
  // complete event whose duration is the site's inclusive wall time. These
  // are *summaries* (wall time projected from t=0), not a timeline.
  for (std::size_t i = 0; i < kSiteCount; ++i) {
    const SiteAgg& a = sites_[i];
    if (a.count == 0) continue;
    const long long tid = static_cast<long long>(i) + 1;
    json::Value tn = json::Value::object();
    tn["ph"] = std::string("M");
    tn["pid"] = static_cast<long long>(pid);
    tn["tid"] = tid;
    tn["name"] = std::string("thread_name");
    json::Value targs = json::Value::object();
    targs["name"] = std::string("wall: ") + site_name(static_cast<Site>(i));
    tn["args"] = std::move(targs);
    events.push_back(std::move(tn));

    json::Value ev = json::Value::object();
    ev["ph"] = std::string("X");
    ev["pid"] = static_cast<long long>(pid);
    ev["tid"] = tid;
    ev["name"] = std::string(site_name(static_cast<Site>(i)));
    ev["ts"] = 0.0;
    ev["dur"] = static_cast<double>(a.inclusive_ns) / kNanosPerMicro;
    json::Value args = json::Value::object();
    args["count"] = static_cast<long long>(a.count);
    args["exclusive_ms"] = static_cast<double>(a.exclusive_ns) / kNanosPerMilli;
    ev["args"] = std::move(args);
    events.push_back(std::move(ev));
  }
  return events;
}

}  // namespace smiless::prof
