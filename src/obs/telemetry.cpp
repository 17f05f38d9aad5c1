#include "obs/telemetry.hpp"

namespace smiless::obs {

Telemetry::Telemetry() {
  bus_.add_sink([this](const Event& e) { on_event(e); });
}

void Telemetry::register_app(int app, std::string name, std::vector<std::string> node_names,
                             double sla) {
  apps_[app] = AppTrackInfo{std::move(name), std::move(node_names)};
  series_.set_app_sla(app, sla);
  app_slots_.clear();  // keys embed the labels; counters do not
}

std::string Telemetry::app_label(int app) const {
  const auto it = apps_.find(app);
  if (it != apps_.end() && !it->second.name.empty()) return it->second.name;
  return "app" + std::to_string(app);
}

std::string Telemetry::node_label(int app, int node) const {
  const auto it = apps_.find(app);
  if (it != apps_.end() && node >= 0 &&
      static_cast<std::size_t>(node) < it->second.node_names.size())
    return it->second.node_names[static_cast<std::size_t>(node)];
  return "node" + std::to_string(node);
}

Telemetry::AppSlots& Telemetry::app_slots(int app) {
  if (app < 0) {  // not a deploy index: resolve the key per event
    uncached_app_ = AppSlots{};
    return uncached_app_;
  }
  const auto a = static_cast<std::size_t>(app);
  if (a >= app_slots_.size()) app_slots_.resize(a + 1);
  return app_slots_[a];
}

Telemetry::NodeSlots& Telemetry::node_slots(int app, int node) {
  if (app < 0 || node < 0) {
    uncached_node_ = NodeSlots{};
    return uncached_node_;
  }
  std::vector<NodeSlots>& nodes = app_slots(app).nodes;
  const auto n = static_cast<std::size_t>(node);
  if (n >= nodes.size()) nodes.resize(n + 1);
  return nodes[n];
}

Histogram& Telemetry::node_histogram(Histogram*& slot, const char* family, int app, int node) {
  if (slot == nullptr)
    slot = &registry_.histogram_slot(std::string(family) + "/" + app_label(app) + "/" +
                                     node_label(app, node));
  return *slot;
}

void Telemetry::on_event(const Event& e) {
  series_.on_event(e);  // one branch when the series is disabled
  std::uint64_t*& counter = counter_slots_[static_cast<std::size_t>(e.type)];
  if (counter == nullptr)
    counter = &registry_.counter_slot(std::string("events/") + event_type_name(e.type));
  ++*counter;
  switch (e.type) {
    case EventType::InvocationReady:
      ready_at_[IdTriple{e.app, e.node, e.request}] = e.t;
      break;
    case EventType::InvocationDone: {
      NodeSlots& slots = node_slots(e.app, e.node);
      node_histogram(slots.infer, "infer", e.app, e.node).add(e.t - e.t2);
      const auto it = ready_at_.find(IdTriple{e.app, e.node, e.request});
      if (it != ready_at_.end()) {
        node_histogram(slots.wait, "wait", e.app, e.node).add(e.t2 - it->second);
        ready_at_.erase(it);
      }
      break;
    }
    case EventType::InstanceReady:
      node_histogram(node_slots(e.app, e.node).init, "init", e.app, e.node).add(e.t - e.t2);
      break;
    case EventType::RequestCompleted: {
      Histogram*& e2e = app_slots(e.app).e2e;
      if (e2e == nullptr) e2e = &registry_.histogram_slot("e2e/" + app_label(e.app));
      e2e->add(e.t - e.t2);
      break;
    }
    default:
      break;
  }
}

json::Value Telemetry::perfetto_json(int pid_base, const std::string& label) const {
  return perfetto_trace(bus_.events(), apps_, pid_base, label);
}

json::Value Telemetry::metrics_json() const { return registry_.to_json(); }

json::Value Telemetry::audit_json() const { return audit_.to_json(); }

}  // namespace smiless::obs
