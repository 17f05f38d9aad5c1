#include "core/smiless_policy.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <span>

#include "math/stats.hpp"
#include "obs/audit.hpp"

#include "common/check.hpp"

namespace smiless::core {

namespace {
constexpr double kMinInterarrival = 0.05;  ///< guard against degenerate predictions
}

SmilessPolicy::SmilessPolicy(std::string name, std::vector<perf::FunctionPerf> profiles_by_node,
                             SmilessOptions options, std::shared_ptr<ThreadPool> pool)
    : name_(std::move(name)),
      profiles_(std::move(profiles_by_node)),
      options_(std::move(options)),
      pool_(std::move(pool)),
      workflow_(StrategyOptimizer(options_.optimizer), pool_.get()),
      autoscaler_(options_.optimizer.config_space, options_.optimizer.pricing,
                  options_.autoscaler_init_weight) {
  it_used_ = options_.default_interarrival;
  it_predicted_ = options_.default_interarrival;
}

SmilessPolicy::~SmilessPolicy() = default;

void SmilessPolicy::set_oracle_arrivals(std::vector<SimTime> arrivals) {
  oracle_ = std::move(arrivals);
  SMILESS_CHECK(std::is_sorted(oracle_.begin(), oracle_.end()));
}

void SmilessPolicy::on_deploy(serverless::AppId app, const apps::App& spec,
                              serverless::PlatformView& platform) {
  SMILESS_CHECK_MSG(app_id_ < 0, "one SmilessPolicy instance serves one application");
  app_id_ = app;
  SMILESS_CHECK(profiles_.size() == spec.dag.size());
  reoptimize(spec, platform, it_used_);

  // With oracle knowledge, pre-warm everything for the very first request.
  if (!oracle_.empty()) {
    const SimTime first = oracle_.front();
    for (std::size_t n = 0; n < spec.dag.size(); ++n) {
      const auto& d = solution_.per_node[n];
      const double offset = options_.use_dag_offsets ? solution_.start_offset[n] : 0.0;
      const SimTime start = first + offset - d.init_time - options_.prewarm_safety;
      platform.prewarm_at(app, static_cast<dag::NodeId>(n),
                          std::max(start, platform.now()));
    }
  }
}

void SmilessPolicy::reoptimize(const apps::App& spec, serverless::PlatformView& platform,
                               double interarrival) {
  it_used_ = std::max(interarrival, kMinInterarrival);
  windows_since_reopt_ = 0;
  // Variability-aware mode boundary: a high-variance arrival process makes
  // just-in-time pre-warming a gamble, so the margin shrinks with the
  // observed coefficient of variation of the gaps.
  update_gap_discount();
  workflow_.optimizer().set_prewarm_margin(
      std::max(0.1, options_.optimizer.prewarm_margin * (1.0 - gap_discount_)));
  // detlint:allow(wall-clock) solver self-profiling for bench_fig16; never feeds sim state
  const auto solve_begin = std::chrono::steady_clock::now();
  solution_ = workflow_.optimize(
      spec.dag, profiles_, it_used_, options_.sla_margin * spec.sla,
      options_.exhaustive ? WorkflowManager::Search::Exhaustive
                          : WorkflowManager::Search::PathSearch);
  const double solver_seconds =  // detlint:allow(wall-clock) same quarantine: overhead metric only
      std::chrono::duration<double>(std::chrono::steady_clock::now() - solve_begin).count();
  apply_plans(platform);

  if (audit_ != nullptr) {
    obs::DecisionRecord rec;
    rec.t = platform.now();
    rec.policy = name_;
    rec.kind = "reoptimize";
    rec.app = app_id_;
    rec.interarrival = it_used_;
    rec.sla = options_.sla_margin * spec.sla;
    for (std::size_t n = 0; n < solution_.per_node.size(); ++n) {
      const auto& d = solution_.per_node[n];
      if (!rec.chosen.empty()) rec.chosen += ' ';
      rec.chosen += spec.dag.name(static_cast<dag::NodeId>(n)) + "=" + d.config.to_string() +
                    (d.mode == ColdStartMode::Prewarm ? "/prewarm" : "/keepalive");
      if (d.mode == ColdStartMode::Prewarm) {
        // The usable pre-warm window of Eq. (4): the gap minus init and
        // inference time. The tightest one bounds how early inits must fire.
        const double slack = it_used_ - d.init_time - d.inference_time;
        if (slack > 0.0 && (rec.prewarm_window == 0.0 || slack < rec.prewarm_window))
          rec.prewarm_window = slack;
      }
    }
    rec.est_cost = solution_.cost_per_invocation;
    rec.feasible = solution_.feasible;
    rec.nodes_explored = static_cast<std::uint64_t>(solution_.nodes_explored);
    rec.solver_seconds = solver_seconds;
    audit_->record(std::move(rec));
  }
}

void SmilessPolicy::apply_plans(serverless::PlatformView& platform) {
  for (std::size_t n = 0; n < solution_.per_node.size(); ++n) {
    const auto& d = solution_.per_node[n];
    serverless::FunctionPlan plan;
    plan.config = d.config;
    plan.max_batch = 1;
    plan.min_instances = 0;
    if (d.mode == ColdStartMode::KeepAlive) {
      // Case II: keep the instance alive between invocations. The slack
      // bounds waste when the arrival process slows before the next
      // re-optimisation notices.
      plan.keepalive =
          std::max(options_.keepalive_slack * it_used_, options_.keepalive_floor);
    } else {
      // Case I: unload after a short hold and pre-warm just in time for
      // the next predicted arrival. The hold spends part of the pre-warm
      // window (IT - T - I) to absorb gap-prediction error; since it stays
      // below that window, the per-invocation cost remains under the
      // keep-alive alternative (Theorem 5.1 still picks the cheaper mode).
      const double slack = std::max(0.0, it_used_ - d.init_time - d.inference_time);
      plan.keepalive = options_.prewarm_hold * slack;
      plan.prewarm_grace = std::max(2.0, 0.5 * it_used_);
    }
    platform.set_plan(app_id_, static_cast<dag::NodeId>(n), plan);
  }
  scaled_out_ = false;
}

void SmilessPolicy::on_arrival(serverless::AppId app, const apps::App& spec,
                               serverless::PlatformView& platform, SimTime now) {
  SMILESS_CHECK(app == app_id_);
  if (last_arrival_ >= 0.0) {
    const double gap = now - last_arrival_;
    if (gap > 1e-9) {
      ia_history_.push_back(gap);
      ia_aux_history_.push_back(count_history_.empty() ? 0.0 : count_history_.back());
    }
  }
  last_arrival_ = now;

  // Advance the oracle cursor past this arrival.
  while (oracle_pos_ < oracle_.size() && oracle_[oracle_pos_] <= now + 1e-9) ++oracle_pos_;

  // Expected gap to the next request: oracle if available, predictor else.
  // Predicted gaps are discounted by the observed gap variability so that
  // early arrivals still find their instance warm (a late pre-warm puts the
  // residual init on the critical path; an early one only bills idle time
  // covered by the grace window).
  double next_gap = it_predicted_;
  if (!oracle_.empty()) {
    next_gap = oracle_pos_ < oracle_.size() ? oracle_[oracle_pos_] - now
                                            : std::numeric_limits<double>::infinity();
  } else {
    update_gap_discount();
    next_gap *= 1.0 - gap_discount_;
  }
  next_gap = std::max(next_gap, kMinInterarrival);

  // Schedule just-in-time pre-warms (§V-B1). A function whose init fits
  // inside its upstream critical path (D_k >= T_k) is warmed for *this*
  // request; otherwise its init must start before the next arrival, so it
  // is scheduled against the predicted gap.
  for (std::size_t n = 0; n < solution_.per_node.size(); ++n) {
    const auto& d = solution_.per_node[n];
    const auto node = static_cast<dag::NodeId>(n);
    const double offset = options_.use_dag_offsets ? solution_.start_offset[n] : 0.0;
    const double lead = offset - d.init_time - options_.prewarm_safety;
    if (d.mode == ColdStartMode::Prewarm) {
      if (lead >= 0.0) {
        platform.prewarm_at(app, node, now + lead);
      } else if (std::isfinite(next_gap)) {
        platform.prewarm_at(app, node, now + std::max(next_gap + lead, 0.0));
      }
    } else {
      if (platform.instances_total(app, node) == 0) {
        // Keep-alive function caught cold (the keep-alive expired during a
        // longer-than-predicted gap): warm the whole chain concurrently so
        // the request pays max(T_k) once instead of a serial init cascade.
        platform.prewarm_at(app, node, now + std::max(lead, 0.0));
      }
      // If the gap to the next request outlives the keep-alive, the
      // instance will be reaped in between — schedule a just-in-time
      // re-warm for that arrival (exact under the oracle, predictive
      // otherwise).
      const double keepalive = platform.plan(app, node).keepalive;
      if (std::isfinite(next_gap) && next_gap > keepalive)
        platform.prewarm_at(app, node, now + std::max(next_gap + lead, keepalive));
    }
  }

  // Fast-path burst reaction: when arrivals inside the current window
  // already exceed what the plans were sized for, scale out immediately
  // instead of waiting for the window boundary (§V-D "operates
  // dynamically"). Window ticks still own the steady-state decisions.
  ++arrivals_this_window_;
  if (options_.enable_autoscaler && arrivals_this_window_ >= 4 &&
      arrivals_this_window_ > burst_level_) {
    autoscale(spec, platform, (3 * arrivals_this_window_) / 2, 1.0);
  }
}

void SmilessPolicy::on_instance_failed(serverless::AppId app, const apps::App& spec,
                                       serverless::PlatformView& platform, dag::NodeId node,
                                       serverless::InstanceFailure kind) {
  (void)spec;
  (void)kind;
  SMILESS_CHECK(app == app_id_);
  // Re-provision up to the plan's floor. An always-warm function (Case-II
  // KeepAlive with infinite keep-alive) restores its single warm instance
  // too; everything else relies on the platform's cold-start retry path,
  // which re-creates an instance as soon as queued work needs one.
  const auto& plan = platform.plan(app, node);
  int want = plan.min_instances;
  if (plan.keepalive == serverless::FunctionPlan::forever()) want = std::max(want, 1);
  while (platform.instances_total(app, node) < want)
    if (!platform.spawn_instance(app, node)) break;  // no capacity; retry path takes over
}

void SmilessPolicy::update_gap_discount() {
  if (!options_.variability_aware) {
    gap_discount_ = 0.0;
    return;
  }
  const std::size_t tail = std::min<std::size_t>(ia_history_.size(), 32);
  if (tail < 8) return;
  const std::span<const double> recent(ia_history_.data() + ia_history_.size() - tail, tail);
  const double mu = math::mean(recent);
  const double cv = mu > 1e-9 ? math::stddev(recent) / mu : 0.0;
  gap_discount_ = std::min(0.5, 2.0 * cv);
}

void SmilessPolicy::maybe_train() {
  if (!options_.use_lstm) return;
  const bool first = !trained_ && count_history_.size() >= options_.train_after;
  const bool refresh = trained_ && options_.retrain_every > 0 &&
                       count_history_.size() >= last_train_size_ + options_.retrain_every;
  if (!first && !refresh) return;

  auto cls_opts = predictor::InvocationClassifier::Options{};
  cls_opts.lstm = options_.count_lstm;
  cls_opts.bucket_size = options_.bucket_size;
  count_predictor_ = std::make_unique<predictor::InvocationClassifier>(cls_opts);
  count_predictor_->fit(count_history_);

  if (ia_history_.size() > options_.it_lstm.seq_len + 8) {
    if (options_.dual_input_it) {
      it_predictor_ = std::make_unique<predictor::DualLstmRegressor>(options_.it_lstm);
      it_predictor_->fit(ia_history_, ia_aux_history_);
    } else {
      it_predictor_single_ = std::make_unique<predictor::LstmRegressor>(options_.it_lstm);
      it_predictor_single_->fit(ia_history_);
    }
  }
  trained_ = true;
  last_train_size_ = count_history_.size();
  it_memo_size_.reset();
  count_memo_.reset();
}

void SmilessPolicy::predict(const apps::App&) {
  // Every branch reads only ia_history_ and ia_aux_history_, which grow
  // together and only on arrivals: an unchanged size means unchanged inputs.
  if (it_memo_size_ == ia_history_.size()) return;
  it_memo_size_ = ia_history_.size();
  if (trained_ && it_predictor_ != nullptr) {
    it_predicted_ = it_predictor_->predict_next(ia_history_, ia_aux_history_);
  } else if (trained_ && it_predictor_single_ != nullptr) {
    it_predicted_ = it_predictor_single_->predict_next(ia_history_);
  } else if (ia_history_.size() >= 3) {
    // Windowed mean of recent gaps: adapts within a few arrivals, unlike a
    // slow EMA whose convergence transient would cold-start a whole phase.
    const std::size_t tail = std::min<std::size_t>(ia_history_.size(), 32);
    it_predicted_ = math::mean(
        std::span<const double>(ia_history_.data() + ia_history_.size() - tail, tail));
  } else {
    it_predicted_ = options_.default_interarrival;
  }
  it_predicted_ = std::max(it_predicted_, kMinInterarrival);
}

int SmilessPolicy::predict_count() {
  // The classifier reads only this tail of the count history.
  std::vector<double> tail =
      predictor::padded_tail(count_history_, count_predictor_->options().lstm.seq_len);
  if (!count_memo_ || tail != count_memo_tail_) {
    count_memo_ = count_predictor_->predict_next(count_history_);
    count_memo_tail_ = std::move(tail);
  }
  return static_cast<int>(std::ceil(*count_memo_));
}

void SmilessPolicy::autoscale(const apps::App& spec, serverless::PlatformView& platform,
                              int predicted_count, double window) {
  if (!options_.enable_autoscaler) return;

  // Burst test (§V-D): invocations inside the window arrive roughly
  // window / G apart; a function whose planned inference time exceeds that
  // gap accumulates backlog (Fig. 5c).
  const double gap =
      predicted_count > 0 ? window / predicted_count : std::numeric_limits<double>::infinity();
  bool burst = predicted_count >= 2;
  if (burst) {
    burst = false;
    for (const auto& d : solution_.per_node)
      if (d.inference_time > gap) burst = true;
  }

  if (!burst) {
    // Fall back to the base plans only after a few calm windows — flapping
    // between scaled and base plans would reap warm instances mid-burst.
    if (scaled_out_ && ++calm_windows_ >= options_.burst_cooldown) {
      apply_plans(platform);
      burst_level_ = 0;
      if (audit_ != nullptr) {
        obs::DecisionRecord rec;
        rec.t = platform.now();
        rec.policy = name_;
        rec.kind = "scale-in";
        rec.app = app_id_;
        rec.interarrival = it_used_;
        rec.est_cost = solution_.cost_per_invocation;
        rec.feasible = solution_.feasible;
        audit_->record(std::move(rec));
      }
    }
    return;
  }
  calm_windows_ = 0;

  // Configuration and batch size are solved once per burst episode and then
  // pinned: re-solving every window flips the cost-optimal backend back and
  // forth as the prediction moves, and every flip reaps warm capacity in
  // the middle of the burst. Only the instance floor tracks demand.
  if (!scaled_out_) {
    std::vector<double> budgets(solution_.per_node.size());
    for (std::size_t n = 0; n < budgets.size(); ++n)
      budgets[n] = solution_.per_node[n].inference_time;
    // detlint:allow(wall-clock) solver self-profiling for bench_fig16; never feeds sim state
    const auto solve_begin = std::chrono::steady_clock::now();
    burst_decisions_ =
        autoscaler_.solve_all(profiles_, budgets, predicted_count, window, pool_.get());
    const double solver_seconds =  // detlint:allow(wall-clock) same quarantine: overhead metric only
        std::chrono::duration<double>(std::chrono::steady_clock::now() - solve_begin).count();
    if (audit_ != nullptr) {
      obs::DecisionRecord rec;
      rec.t = platform.now();
      rec.policy = name_;
      rec.kind = "autoscale";
      rec.app = app_id_;
      rec.interarrival = window;
      rec.predicted_count = static_cast<double>(predicted_count);
      rec.sla = options_.sla_margin * spec.sla;
      bool all_feasible = true;
      for (std::size_t n = 0; n < burst_decisions_.size(); ++n) {
        const auto& sd = burst_decisions_[n];
        if (!rec.chosen.empty()) rec.chosen += ' ';
        rec.chosen += spec.dag.name(static_cast<dag::NodeId>(n)) + "=" + sd.config.to_string() +
                      "*b" + std::to_string(sd.batch);
        rec.est_cost += sd.cost;
        all_feasible = all_feasible && sd.feasible;
      }
      rec.feasible = all_feasible;
      rec.solver_seconds = solver_seconds;
      audit_->record(std::move(rec));
    }
  }

  for (std::size_t n = 0; n < burst_decisions_.size(); ++n) {
    const auto& sd = burst_decisions_[n];
    // Demand includes the already-queued backlog so the fleet drains it
    // instead of merely keeping pace with new arrivals.
    const long backlog =
        static_cast<long>(platform.queue_length(app_id_, static_cast<dag::NodeId>(n)));
    // New arrivals plus half the backlog: drain queued work over ~2 windows
    // instead of paying for a fleet that clears it instantly.
    const long demand = predicted_count + (backlog + 1) / 2;
    serverless::FunctionPlan plan = platform.plan(app_id_, static_cast<dag::NodeId>(n));
    plan.config = sd.config;
    plan.max_batch = sd.batch;
    plan.min_instances =
        static_cast<int>((demand + sd.batch - 1) / std::max(1, sd.batch));
    // During a burst every function effectively stays live.
    plan.keepalive = std::max(plan.keepalive, 4.0 * window);
    platform.set_plan(app_id_, static_cast<dag::NodeId>(n), plan);
  }
  scaled_out_ = true;
  burst_level_ = predicted_count;
}

void SmilessPolicy::on_window(serverless::AppId app, const apps::App& spec,
                              serverless::PlatformView& platform,
                              const serverless::WindowStats& stats) {
  SMILESS_CHECK(app == app_id_);
  const double window = stats.window_end - stats.window_start;
  arrivals_this_window_ = 0;
  count_history_.push_back(static_cast<double>(stats.arrivals));
  maybe_train();
  predict(spec);

  // Re-plan when the predicted arrival process drifted from the one the
  // current strategy assumed — with a dwell so transient jitter does not
  // churn the plans (every config change reaps warm instances).
  ++windows_since_reopt_;
  if (!scaled_out_ && windows_since_reopt_ >= options_.reopt_dwell &&
      std::abs(it_predicted_ - it_used_) / it_used_ > options_.reopt_threshold)
    reoptimize(spec, platform, it_predicted_);

  // Predicted invocations for the next window.
  int predicted_count;
  if (!oracle_.empty()) {
    // Count oracle arrivals inside the next window.
    predicted_count = 0;
    std::size_t i = oracle_pos_;
    while (i < oracle_.size() && oracle_[i] < stats.window_end + window) {
      if (oracle_[i] >= stats.window_end) ++predicted_count;
      ++i;
    }
  } else if (trained_ && count_predictor_ != nullptr) {
    predicted_count = predict_count();
  } else {
    predicted_count = stats.arrivals;  // persistence until the LSTM trains
  }
  autoscale(spec, platform, std::max(predicted_count, 0), window);
}

}  // namespace smiless::core
