#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "concurrency/thread_pool.hpp"
#include "core/autoscaler.hpp"
#include "core/workflow_manager.hpp"
#include "predictor/invocation_classifier.hpp"
#include "predictor/lstm_regressor.hpp"
#include "serverless/platform_view.hpp"

namespace smiless::obs {
class AuditLog;
}  // namespace smiless::obs

namespace smiless::core {

/// All the knobs of the SMIless runtime policy. The ablations and OPT are
/// expressed as option combinations:
///  - SMIless-Homo: cpu-only `optimizer.config_space`
///  - SMIless-No-DAG: `use_dag_offsets = false`
///  - OPT: `exhaustive = true` + oracle arrivals + ground-truth profiles
struct SmilessOptions {
  OptimizerOptions optimizer;

  bool use_dag_offsets = true;   ///< false => warm all functions at arrival time
  bool exhaustive = false;       ///< exhaustive chain search instead of path search
  bool enable_autoscaler = true; ///< adaptive batching + scale-out (§V-D)

  /// Online predictors. With `use_lstm` false the policy falls back to
  /// exponential-moving-average estimates (useful for fast tests).
  bool use_lstm = true;
  bool dual_input_it = true;     ///< false => single-LSTM inter-arrival (SMIless-S)
  predictor::LstmOptions count_lstm{};
  predictor::LstmOptions it_lstm{};
  int bucket_size = 2;
  std::size_t train_after = 240;  ///< windows of history before LSTM training
  std::size_t retrain_every = 0;  ///< re-fit the predictors every N windows (0 = once)

  double default_interarrival = 2.0;  ///< prior before any arrivals observed
  double reopt_threshold = 0.25;      ///< relative IT change triggering re-optimisation
  int reopt_dwell = 10;               ///< min windows between re-optimisations
  double keepalive_slack = 5.0;       ///< keep-alive = slack * IT for Case-II functions
  double keepalive_floor = 12.0;      ///< minimum keep-alive (s) in KeepAlive mode
  double prewarm_hold = 0.5;          ///< Case-I hold as a fraction of the pre-warm window
  double prewarm_safety = 0.05;       ///< start inits this much early (s)

  /// Plan against sla * sla_margin so the 6%-jitter tail of sampled
  /// latencies still lands inside the SLA (the paper's zero-violation
  /// figures imply similar headroom via the mu+3sigma init estimates).
  double sla_margin = 0.78;

  /// Burst-scaling hysteresis: fall back to the base plans only after this
  /// many consecutive calm windows.
  int burst_cooldown = 3;

  /// Fold instance initialization time into the Auto-scaler's Eq. (7)
  /// objective (DESIGN.md §6); 0 recovers the paper's literal formula.
  double autoscaler_init_weight = 1.0;

  /// Scale the pre-warm margin and pre-warm schedule by the observed gap
  /// variability (DESIGN.md §6); false recovers the paper's deterministic
  /// treatment of IT.
  bool variability_aware = true;
};

/// SMIless (§III–§V): co-optimizes heterogeneous configuration and
/// cold-start management with adaptive pre-warming, re-planning as the
/// Online Predictor's view of the arrival process changes, and scaling
/// out with adaptive batching under bursts.
class SmilessPolicy : public serverless::Policy {
 public:
  /// `profiles_by_node` are the (typically profiler-fitted) performance
  /// models indexed by the app's DAG node ids. One policy instance serves
  /// one application.
  SmilessPolicy(std::string name, std::vector<perf::FunctionPerf> profiles_by_node,
                SmilessOptions options, std::shared_ptr<ThreadPool> pool = nullptr);
  ~SmilessPolicy() override;

  /// Give the policy perfect knowledge of the arrival process (OPT).
  void set_oracle_arrivals(std::vector<SimTime> arrivals);

  /// Attach a decision audit log (non-owning, may be null). Every
  /// StrategyOptimizer / Autoscaler solve and scale-in is recorded with its
  /// inputs, and the solver wall time accumulates for overhead reporting.
  void set_audit_log(obs::AuditLog* log) override { audit_ = log; }

  std::string name() const override { return name_; }
  void on_deploy(serverless::AppId app, const apps::App& spec,
                 serverless::PlatformView& platform) override;
  void on_window(serverless::AppId app, const apps::App& spec,
                 serverless::PlatformView& platform, const serverless::WindowStats& stats) override;
  void on_arrival(serverless::AppId app, const apps::App& spec,
                  serverless::PlatformView& platform, SimTime now) override;
  /// Restore the scale-out floor (and the warm pool of always-warm
  /// functions) after a failed init or a machine-down eviction.
  void on_instance_failed(serverless::AppId app, const apps::App& spec,
                          serverless::PlatformView& platform, dag::NodeId node,
                          serverless::InstanceFailure kind) override;

  /// The currently deployed solution (for tests and benches).
  const AppSolution& solution() const { return solution_; }
  double predicted_interarrival() const { return it_predicted_; }

 private:
  void reoptimize(const apps::App& spec, serverless::PlatformView& platform, double interarrival);
  void apply_plans(serverless::PlatformView& platform);
  void maybe_train();
  void predict(const apps::App& spec);
  int predict_count();
  void update_gap_discount();
  void autoscale(const apps::App& spec, serverless::PlatformView& platform, int predicted_count,
                 double window);

  std::string name_;
  std::vector<perf::FunctionPerf> profiles_;
  obs::AuditLog* audit_ = nullptr;
  SmilessOptions options_;
  std::shared_ptr<ThreadPool> pool_;
  WorkflowManager workflow_;
  AutoScaler autoscaler_;

  serverless::AppId app_id_ = -1;
  AppSolution solution_;
  double it_used_ = 0.0;       ///< IT the current solution was computed with
  double it_predicted_ = 0.0;  ///< latest predictor output
  bool scaled_out_ = false;    ///< burst plans currently installed
  int burst_level_ = 0;        ///< predicted count the current scale plan assumed
  std::vector<ScaleDecision> burst_decisions_;  ///< pinned per-episode configs
  int calm_windows_ = 0;       ///< consecutive windows below the burst test
  int windows_since_reopt_ = 0;
  int arrivals_this_window_ = 0;  ///< intra-window arrival count (fast path)

  // Online state.
  double gap_discount_ = 0.0;  ///< min(0.5, 2*cv) of recent gaps
  std::vector<double> count_history_;
  std::vector<double> ia_history_;      ///< observed inter-arrival gaps
  std::vector<double> ia_aux_history_;  ///< aligned invocation-count inputs
  SimTime last_arrival_ = -1.0;

  // Predictors.
  std::unique_ptr<predictor::InvocationClassifier> count_predictor_;
  std::unique_ptr<predictor::DualLstmRegressor> it_predictor_;
  std::unique_ptr<predictor::LstmRegressor> it_predictor_single_;
  bool trained_ = false;
  std::size_t last_train_size_ = 0;  ///< history length at the last (re)training

  // Input-unchanged reuse (DESIGN.md §17): a prediction is recomputed only
  // when its inputs changed or the predictors were refit.
  std::optional<std::size_t> it_memo_size_;  ///< ia_history_ size it_predicted_ is from
  std::optional<double> count_memo_;         ///< last count-classifier output
  std::vector<double> count_memo_tail_;      ///< the classifier input it came from

  // Oracle (OPT).
  std::vector<SimTime> oracle_;
  std::size_t oracle_pos_ = 0;
};

}  // namespace smiless::core
