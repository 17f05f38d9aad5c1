#include "trace.hpp"

#include <bit>

#include "common/units.hpp"
#include "host.hpp"
#include "serverless/platform_view.hpp"

namespace perfbench {

using namespace smiless;

int SpanLog::begin(std::string name, int parent) {
  const std::uint64_t now = wall_ns();
  return add(std::move(name), now, now, parent);
}

void SpanLog::end(int id) {
  if (id >= 0 && static_cast<std::size_t>(id) < spans_.size())
    spans_[static_cast<std::size_t>(id)].end_ns = wall_ns();
}

int SpanLog::add(std::string name, std::uint64_t start_ns, std::uint64_t end_ns, int parent) {
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent});
  return static_cast<int>(spans_.size()) - 1;
}

json::Value SpanLog::to_json() const {
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  json::Value events = json::Value::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    json::Value e = json::Value::object();
    e["name"] = s.name;
    e["ph"] = "X";
    e["pid"] = 1;
    e["tid"] = 1;
    e["ts"] = static_cast<double>(s.start_ns - origin) / kNanosPerMicro;
    e["dur"] = static_cast<double>(s.end_ns - s.start_ns) / kNanosPerMicro;
    json::Value args = json::Value::object();
    args["id"] = static_cast<long long>(i);
    args["parent"] = static_cast<long long>(s.parent);
    e["args"] = std::move(args);
    events.push_back(std::move(e));
  }
  json::Value doc = json::Value::object();
  doc["traceEvents"] = std::move(events);
  return doc;
}

std::size_t Histogram::bucket_of(std::uint64_t ns) {
  if (ns < 16) return static_cast<std::size_t>(ns);
  const int e = std::bit_width(ns) - 1;  // ns in [2^e, 2^(e+1)), e >= 4
  const std::size_t sub = static_cast<std::size_t>((ns >> (e - 3)) & 7u);
  const std::size_t b = 16 + static_cast<std::size_t>(e - 4) * 8 + sub;
  return b < kBuckets ? b : kBuckets - 1;
}

double Histogram::midpoint(std::size_t bucket) {
  if (bucket < 16) return static_cast<double>(bucket);
  const int e = static_cast<int>((bucket - 16) / 8) + 4;
  const double sub = static_cast<double>((bucket - 16) % 8);
  const double width = static_cast<double>(std::uint64_t{1} << (e - 3));
  return static_cast<double>(std::uint64_t{1} << e) + (sub + 0.5) * width;
}

void Histogram::add(std::uint64_t ns) {
  ++counts_[bucket_of(ns)];
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  count_ += other.count_;
}

double Histogram::quantile_ns(double q) const {
  if (count_ == 0) return 0.0;
  // Rank of the q-quantile, 1-based: the smallest value with at least
  // ceil(q * count) samples at or below it.
  std::uint64_t rank = static_cast<std::uint64_t>(q * static_cast<double>(count_));
  if (static_cast<double>(rank) < q * static_cast<double>(count_)) ++rank;
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += counts_[b];
    if (seen >= rank) return midpoint(b);
  }
  return midpoint(kBuckets - 1);
}

void HookTotals::merge(const HookTotals& o) {
  window_calls += o.window_calls;
  window_ns += o.window_ns;
  arrival_calls += o.arrival_calls;
  arrival_ns += o.arrival_ns;
  failed_calls += o.failed_calls;
  failed_ns += o.failed_ns;
  window_hist.merge(o.window_hist);
}

TimedPolicy::TimedPolicy(std::shared_ptr<serverless::Policy> inner, Shared* shared,
                         bool sentinel)
    : inner_(std::move(inner)), shared_(shared), sentinel_(sentinel) {}

std::string TimedPolicy::name() const { return inner_->name(); }

void TimedPolicy::span(const char* name, std::uint64_t t0, std::uint64_t t1) {
  if (!shared_->span_hooks || shared_->spans == nullptr) return;
  // Hooks before the sentinel's first window belong to the run itself.
  const int parent = shared_->window_span >= 0 ? shared_->window_span : shared_->run_span;
  shared_->spans->add(name, t0, t1, parent);
}

void TimedPolicy::on_deploy(serverless::AppId app, const apps::App& spec,
                            serverless::PlatformView& platform) {
  inner_->on_deploy(app, spec, platform);
}

void TimedPolicy::on_window(serverless::AppId app, const apps::App& spec,
                            serverless::PlatformView& platform,
                            const serverless::WindowStats& stats) {
  const std::uint64_t t0 = wall_ns();
  if (sentinel_) {
    if (last_window_ns_ != 0)
      shared_->window_ms.push_back(static_cast<double>(t0 - last_window_ns_) / kNanosPerMilli);
    last_window_ns_ = t0;
    if (shared_->spans != nullptr) {
      shared_->spans->end(shared_->window_span);
      shared_->window_span = shared_->spans->begin("window", shared_->run_span);
    }
  }
  inner_->on_window(app, spec, platform, stats);
  const std::uint64_t t1 = wall_ns();
  ++totals_.window_calls;
  totals_.window_ns += t1 - t0;
  totals_.window_hist.add(t1 - t0);
  span("policy/on_window", t0, t1);
}

void TimedPolicy::on_arrival(serverless::AppId app, const apps::App& spec,
                             serverless::PlatformView& platform, SimTime now) {
  const std::uint64_t t0 = wall_ns();
  inner_->on_arrival(app, spec, platform, now);
  const std::uint64_t t1 = wall_ns();
  ++totals_.arrival_calls;
  totals_.arrival_ns += t1 - t0;
  span("policy/on_arrival", t0, t1);
}

void TimedPolicy::on_instance_failed(serverless::AppId app, const apps::App& spec,
                                     serverless::PlatformView& platform, dag::NodeId node,
                                     serverless::InstanceFailure kind) {
  const std::uint64_t t0 = wall_ns();
  inner_->on_instance_failed(app, spec, platform, node, kind);
  const std::uint64_t t1 = wall_ns();
  ++totals_.failed_calls;
  totals_.failed_ns += t1 - t0;
  span("policy/on_instance_failed", t0, t1);
}

void TimedPolicy::set_audit_log(obs::AuditLog* audit) { inner_->set_audit_log(audit); }

}  // namespace perfbench
