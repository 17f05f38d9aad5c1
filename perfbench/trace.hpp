#pragma once

// Tracing for the benchmark's traced run, recorded entirely from outside
// the simulator: an in-memory span log, a log-bucketed latency histogram,
// and a forwarding Policy decorator that times the hooks of the policy it
// wraps.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "serverless/policy.hpp"

namespace perfbench {

/// One traced interval: name, start, end and the span that contains it
/// (-1 for a root). Times are host-clock nanoseconds.
struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;
};

/// Spans kept in memory and written out once the run has ended. Not
/// thread-safe: a traced run records spans from one thread at a time.
class SpanLog {
 public:
  /// Open a span now; returns its id. Close it with end().
  int begin(std::string name, int parent);
  void end(int id);
  /// Record an already-measured interval; returns its id.
  int add(std::string name, std::uint64_t start_ns, std::uint64_t end_ns, int parent);

  std::size_t size() const { return spans_.size(); }
  /// Chrome trace-event JSON ("X" events, microseconds), loadable in
  /// Perfetto; each event's args carry its id and parent id.
  smiless::json::Value to_json() const;

 private:
  std::vector<Span> spans_;
};

/// Latency histogram over nanoseconds with eight sub-buckets per power of
/// two (relative bucket width <= 12.5%).
class Histogram {
 public:
  void add(std::uint64_t ns);
  void merge(const Histogram& other);
  /// Value at quantile q in [0, 1] (bucket midpoint), nanoseconds.
  double quantile_ns(double q) const;

 private:
  static constexpr std::size_t kBuckets = 16 + 60 * 8;
  static std::size_t bucket_of(std::uint64_t ns);
  static double midpoint(std::size_t bucket);

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

/// Per-hook totals of one TimedPolicy.
struct HookTotals {
  std::uint64_t window_calls = 0;
  std::uint64_t window_ns = 0;
  std::uint64_t arrival_calls = 0;
  std::uint64_t arrival_ns = 0;
  std::uint64_t failed_calls = 0;
  std::uint64_t failed_ns = 0;
  Histogram window_hist;

  void merge(const HookTotals& other);
};

/// Forwarding Policy decorator: times the window, arrival and
/// instance-failed hooks of `inner` with the host clock. As the sentinel it
/// records the wall time between its consecutive on_window calls (one
/// simulated window each) and, with a SpanLog, a span per window; with
/// Shared::span_hooks it also records a span per hook call, parented to the
/// sentinel's current window span. A SpanLog must therefore only be shared
/// by decorators that run on one thread.
class TimedPolicy final : public smiless::serverless::Policy {
 public:
  struct Shared {
    SpanLog* spans = nullptr;  ///< null: aggregate only
    bool span_hooks = false;   ///< also span every hook call, not only windows
    int run_span = -1;         ///< parent of window spans
    int window_span = -1;      ///< the sentinel's current window span
    std::vector<double> window_ms;  ///< sentinel window durations
  };

  TimedPolicy(std::shared_ptr<smiless::serverless::Policy> inner, Shared* shared,
              bool sentinel);

  const HookTotals& totals() const { return totals_; }

  std::string name() const override;
  void on_deploy(smiless::serverless::AppId app, const smiless::apps::App& spec,
                 smiless::serverless::PlatformView& platform) override;
  void on_window(smiless::serverless::AppId app, const smiless::apps::App& spec,
                 smiless::serverless::PlatformView& platform,
                 const smiless::serverless::WindowStats& stats) override;
  void on_arrival(smiless::serverless::AppId app, const smiless::apps::App& spec,
                  smiless::serverless::PlatformView& platform, smiless::SimTime now) override;
  void on_instance_failed(smiless::serverless::AppId app, const smiless::apps::App& spec,
                          smiless::serverless::PlatformView& platform, smiless::dag::NodeId node,
                          smiless::serverless::InstanceFailure kind) override;
  void set_audit_log(smiless::obs::AuditLog* audit) override;

 private:
  void span(const char* name, std::uint64_t t0, std::uint64_t t1);

  std::shared_ptr<smiless::serverless::Policy> inner_;
  Shared* shared_;
  bool sentinel_;
  std::uint64_t last_window_ns_ = 0;
  HookTotals totals_;
};

}  // namespace perfbench
