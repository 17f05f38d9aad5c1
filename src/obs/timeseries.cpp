#include "obs/timeseries.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "math/stats.hpp"

namespace smiless::obs {

void TimeSeries::enable(double cadence) {
  SMILESS_CHECK_MSG(cadence > 0.0, "series cadence must be > 0");
  if (cadence_ > 0.0) {
    SMILESS_CHECK_MSG(cadence_ == cadence, "series cadence changed mid-run");
    return;
  }
  SMILESS_CHECK_MSG(closed_.empty() && last_t_ == 0.0, "enable after events");
  cadence_ = cadence;
  bin_end_ = cadence;
}

void TimeSeries::set_app_sla(int app, double sla) {
  SMILESS_CHECK(app >= 0);
  const auto a = static_cast<std::size_t>(app);
  if (a >= slas_.size()) slas_.resize(a + 1, 0.0);
  slas_[a] = sla;
}

void TimeSeries::accumulate(double until) {
  const double dt = until - last_t_;
  if (dt > 0.0) {
    active_sec_ += dt * static_cast<double>(init_ + warm_ + busy_);
    busy_sec_ += dt * static_cast<double>(busy_);
    last_t_ = until;
  }
}

void TimeSeries::close_bin() {
  cur_.t = bin_end_;
  cur_.instances_init = init_;
  cur_.instances_warm = warm_;
  cur_.instances_busy = busy_;
  cur_.machines_busy = busy_machines_;
  cur_.queue_depth = queue_total_;
  cur_.p99 = cur_e2e_.empty() ? 0.0 : math::percentile(cur_e2e_, 99);
  cur_.utilization = active_sec_ > 0.0 ? busy_sec_ / active_sec_ : 0.0;
  cur_.cost_rate = active_sec_ / cadence_;
  closed_.push_back(cur_);
  for (auto& [key, fn] : fns_) fn.series.push_back(static_cast<double>(fn.depth));
  cur_ = Bin{};
  cur_e2e_.clear();
  active_sec_ = 0.0;
  busy_sec_ = 0.0;
  bin_end_ += cadence_;
}

void TimeSeries::advance_to(double t) {
  SMILESS_CHECK_MSG(t >= last_t_, "time series saw time run backwards");
  // Right-inclusive bins: an event at exactly k*cadence belongs to bin k,
  // so a bin only closes once time moves strictly past its end.
  while (t > bin_end_) {
    accumulate(bin_end_);
    close_bin();
  }
  accumulate(t);
}

void TimeSeries::machine_add(int machine) {
  if (machine < 0) return;
  const auto m = static_cast<std::size_t>(machine);
  if (m >= machine_instances_.size()) machine_instances_.resize(m + 1, 0);
  if (++machine_instances_[m] == 1) ++busy_machines_;
}

void TimeSeries::machine_remove(int machine) {
  if (machine < 0 || static_cast<std::size_t>(machine) >= machine_instances_.size()) return;
  long& n = machine_instances_[static_cast<std::size_t>(machine)];
  if (n == 0) return;
  if (--n == 0) --busy_machines_;
}

void TimeSeries::remove_instance(const IdTriple& key) {
  const auto it = instances_.find(key);
  if (it == instances_.end()) return;
  switch (it->second.state) {
    case 0: --init_; break;
    case 1: --warm_; break;
    default: --busy_; break;
  }
  machine_remove(it->second.machine);
  instances_.erase(it);
}

void TimeSeries::queue_add(int app, int request, int node) {
  std::vector<QueuedNode>& nodes = queued_[request_key(app, request)];
  for (const QueuedNode& q : nodes)
    if (q.node == node) return;  // already ready or executing
  auto [fn, inserted] = fns_.try_emplace(std::make_pair(app, node));
  if (inserted) fn->second.series.assign(closed_.size(), 0.0);
  nodes.push_back({node, &fn->second.depth});
  ++fn->second.depth;
  ++queue_total_;
}

void TimeSeries::queue_erase(int app, int request, int node) {
  const auto it = queued_.find(request_key(app, request));
  if (it == queued_.end()) return;
  std::vector<QueuedNode>& nodes = it->second;
  for (auto q = nodes.begin(); q != nodes.end(); ++q) {
    if (q->node != node) continue;
    --*q->depth;
    --queue_total_;
    nodes.erase(q);
    return;
  }
}

void TimeSeries::queue_strip(int app, int request) {
  const auto it = queued_.find(request_key(app, request));
  if (it == queued_.end()) return;
  for (const QueuedNode& q : it->second) --*q.depth;
  queue_total_ -= static_cast<long>(it->second.size());
  queued_.erase(it);
}

void TimeSeries::on_event(const Event& e) {
  if (!enabled() || finalized_) return;
  advance_to(e.t);
  switch (e.type) {
    case EventType::RequestSubmitted:
      ++cur_.arrivals;
      break;
    case EventType::RequestCompleted: {
      ++cur_.completions;
      const double e2e = e.t - e.t2;
      cur_e2e_.push_back(e2e);
      const double sla = e.app >= 0 && static_cast<std::size_t>(e.app) < slas_.size()
                             ? slas_[static_cast<std::size_t>(e.app)]
                             : 0.0;
      if (sla <= 0.0 || e2e <= sla) ++cur_.slo_attained;
      // The request's queue entry is done with, unless a node of it is
      // still queued (then it stays, as that node's record).
      const auto it = queued_.find(request_key(e.app, e.request));
      if (it != queued_.end() && it->second.empty()) queued_.erase(it);
      break;
    }
    case EventType::RequestFailed:
      ++cur_.failures;
      queue_strip(e.app, e.request);
      break;
    case EventType::InvocationReady:
      queue_add(e.app, e.request, e.node);
      break;
    case EventType::InvocationDone:
      queue_erase(e.app, e.request, e.node);
      break;
    case EventType::InstanceCreated: {
      ++cur_.cold_starts;
      ++init_;
      instances_[IdTriple{e.app, e.node, e.instance}] = InstanceRec{0, e.machine};
      machine_add(e.machine);
      break;
    }
    case EventType::InstanceReady: {
      const auto it = instances_.find(IdTriple{e.app, e.node, e.instance});
      if (it != instances_.end() && it->second.state == 0) {
        it->second.state = 1;
        --init_;
        ++warm_;
      }
      break;
    }
    case EventType::BatchStart: {
      const auto it = instances_.find(IdTriple{e.app, e.node, e.instance});
      if (it != instances_.end() && it->second.state == 1) {
        it->second.state = 2;
        --warm_;
        ++busy_;
      }
      break;
    }
    case EventType::BatchEnd: {
      const auto it = instances_.find(IdTriple{e.app, e.node, e.instance});
      if (it != instances_.end() && it->second.state == 2) {
        it->second.state = 1;
        --busy_;
        ++warm_;
      }
      break;
    }
    case EventType::InstanceInitFailed:
    case EventType::InstanceTerminated:
    case EventType::InstanceEvicted:
      remove_instance(IdTriple{e.app, e.node, e.instance});
      break;
    default:
      break;
  }
}

void TimeSeries::finalize(double end) {
  if (!enabled() || finalized_) return;
  finalized_ = true;
  SMILESS_CHECK(end >= last_t_);
  // Close every bin whose range intersects [0, end]; the final bin's
  // weighted integrals stop at `end` (its census gauges are still the
  // state at that moment).
  while (bin_end_ < end) {
    accumulate(bin_end_);
    close_bin();
  }
  accumulate(end);
  close_bin();
}

json::Value TimeSeries::to_json(const std::map<int, AppTrackInfo>& apps) const {
  SMILESS_CHECK_MSG(finalized_, "series exported before finalize()");
  json::Value doc = json::Value::object();
  doc["cadence"] = cadence_;
  doc["bins"] = static_cast<long long>(closed_.size());

  auto column = [this](auto&& get) {
    json::Value arr = json::Value::array();
    for (const Bin& b : closed_) arr.push_back(json::Value(get(b)));
    return arr;
  };
  doc["t"] = column([](const Bin& b) { return b.t; });
  doc["arrivals"] = column([](const Bin& b) { return static_cast<long long>(b.arrivals); });
  doc["completions"] =
      column([](const Bin& b) { return static_cast<long long>(b.completions); });
  doc["failures"] = column([](const Bin& b) { return static_cast<long long>(b.failures); });
  doc["slo_attainment"] = column([](const Bin& b) {
    return b.completions == 0
               ? 1.0
               : static_cast<double>(b.slo_attained) / static_cast<double>(b.completions);
  });
  doc["p99_latency"] = column([](const Bin& b) { return b.p99; });
  doc["cold_starts"] =
      column([](const Bin& b) { return static_cast<long long>(b.cold_starts); });
  doc["instances_init"] =
      column([](const Bin& b) { return static_cast<long long>(b.instances_init); });
  doc["instances_warm"] =
      column([](const Bin& b) { return static_cast<long long>(b.instances_warm); });
  doc["instances_busy"] =
      column([](const Bin& b) { return static_cast<long long>(b.instances_busy); });
  doc["machines_busy"] =
      column([](const Bin& b) { return static_cast<long long>(b.machines_busy); });
  doc["queue_depth"] =
      column([](const Bin& b) { return static_cast<long long>(b.queue_depth); });
  doc["utilization"] = column([](const Bin& b) { return b.utilization; });
  doc["cost_rate"] = column([](const Bin& b) { return b.cost_rate; });

  auto label = [&apps](int app, int node) {
    std::string a = "app" + std::to_string(app);
    std::string n = "node" + std::to_string(node);
    const auto it = apps.find(app);
    if (it != apps.end()) {
      if (!it->second.name.empty()) a = it->second.name;
      if (node >= 0 && static_cast<std::size_t>(node) < it->second.node_names.size())
        n = it->second.node_names[static_cast<std::size_t>(node)];
    }
    return a + "/" + n;
  };
  json::Value fns = json::Value::array();
  for (const auto& [key, fn] : fns_) {
    json::Value v = json::Value::object();
    v["function"] = label(key.first, key.second);
    json::Value arr = json::Value::array();
    for (const double d : fn.series) arr.push_back(json::Value(d));
    v["queue_depth"] = std::move(arr);
    fns.push_back(std::move(v));
  }
  doc["functions"] = std::move(fns);
  return doc;
}

}  // namespace smiless::obs
