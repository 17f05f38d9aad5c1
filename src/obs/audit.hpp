#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace smiless::obs {

/// One policy decision with the inputs that drove it. `kind` is
/// "reoptimize" (full StrategyOptimizer pass over the DAG), "autoscale"
/// (burst Autoscaler solve) or "scale-in" (return to the baseline plan after
/// a calm period). `chosen` is a human-readable summary of the selected
/// configuration ("vgg16=cpu4/prewarm resnet=gpu20/keepalive").
struct DecisionRecord {
  double t = 0.0;
  std::string policy;
  std::string kind;
  int app = -1;
  double interarrival = 0.0;
  double predicted_count = 0.0;
  double sla = 0.0;
  std::string chosen;
  double prewarm_window = 0.0;
  double est_cost = 0.0;
  bool feasible = true;
  std::uint64_t nodes_explored = 0;
  /// Wall-clock spent inside the solver for this decision. Deliberately
  /// excluded from to_json(): it is the one nondeterministic field, kept only
  /// for the Fig. 16-style overhead accounting.
  double solver_seconds = 0.0;

  json::Value to_json() const;
  static DecisionRecord from_json(const json::Value& v);
};

/// Append-only audit log of policy decisions, plus the self-profiling
/// aggregate over solver wall time that bench_fig16_overhead reports.
class AuditLog {
 public:
  void record(DecisionRecord rec);

  const std::vector<DecisionRecord>& records() const { return records_; }
  /// Forget the `n` oldest records; the solver aggregates are kept.
  void drop_front(std::size_t n) {
    records_.erase(records_.begin(), records_.begin() + static_cast<std::ptrdiff_t>(n));
  }
  std::uint64_t solver_calls() const { return solver_calls_; }
  double total_solver_seconds() const { return total_solver_seconds_; }

  /// {"decisions": [...]} — deterministic (solver wall time excluded).
  json::Value to_json() const;
  static AuditLog from_json(const json::Value& v);

 private:
  std::vector<DecisionRecord> records_;
  std::uint64_t solver_calls_ = 0;
  double total_solver_seconds_ = 0.0;
};

}  // namespace smiless::obs
