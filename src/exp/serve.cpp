#include "exp/serve.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/stream_sink.hpp"
#include "obs/telemetry.hpp"
#include "rt/driver.hpp"
#include "rt/wall_clock.hpp"

namespace smiless::exp {

ServeReport serve(const ExperimentConfig& config, const baselines::ProfileStore& store,
                  std::shared_ptr<ThreadPool> policy_pool, const ServeOptions& options) {
  // Materialize the cell exactly as Runner::run_cell does — same
  // construction order, so the trajectory only depends on the config.
  const apps::App app = resolve_app(config);
  const workload::Trace trace = build_trace(config, app);
  std::shared_ptr<obs::Telemetry> telemetry;
  if (config.obs.collect() || options.stream != nullptr)
    telemetry = std::make_shared<obs::Telemetry>();
  std::shared_ptr<prof::Profiler> profile;
  if (config.obs.profile()) profile = std::make_shared<prof::Profiler>();

  std::optional<obs::StreamSink> sink;
  if (options.stream != nullptr) sink.emplace(options.stream).attach(telemetry->bus());

  std::shared_ptr<serverless::Policy> policy;
  if (config.policy_override) {
    const CellContext ctx{config, app, trace, store, policy_pool, telemetry.get()};
    policy = config.policy_override(ctx);
  } else {
    const auto kind = baselines::parse_policy_kind(config.policy);
    if (!kind) throw std::runtime_error("unknown policy '" + config.policy + "'");
    baselines::PolicySettings settings;
    settings.use_lstm = config.use_lstm;
    settings.pool = std::move(policy_pool);
    settings.oracle_trace = &trace;  // only OPT reads it
    settings.audit = telemetry != nullptr ? &telemetry->audit() : nullptr;
    policy = baselines::make_policy(*kind, app, store, settings);
  }

  rt::WallClock clock(options.speedup);
  rt::RealTimeDriver driver(&clock);

  baselines::ExperimentOptions eopt;
  eopt.seed = config.seed;
  eopt.drain_slack = config.drain_slack;
  eopt.lanes = config.lanes;
  eopt.platform = config.platform;
  if (!config.obs.windows_out.empty()) eopt.platform.record_windows = true;
  eopt.faults = config.faults;
  eopt.telemetry = telemetry.get();
  eopt.profiler = profile.get();
  eopt.internal_stats = config.obs.internal_stats;
  if (!config.obs.series_out.empty() || !config.obs.report_out.empty())
    eopt.series_cadence = config.obs.series_cadence;
  eopt.driver = &driver;

  ServeReport report;
  report.cell.config = config;
  report.cell.telemetry = telemetry;
  report.cell.profile = profile;
  {
    prof::ScopeTimer cell_scope(profile.get(), prof::Site::CellRun);
    report.cell.result = baselines::run_experiment(app, trace, std::move(policy), eopt);
  }
  report.speedup = options.speedup;
  report.wall_seconds = clock.wall_elapsed_seconds();
  report.cell.wall_seconds = report.wall_seconds;
  report.max_lag_seconds = clock.max_lag_seconds();
  report.batches = driver.stats().batches;
  report.injected = driver.stats().injections;
  report.stream_lines = sink.has_value() ? sink->lines() : 0;
  report.interrupted = driver.stats().interrupted;
  return report;
}

}  // namespace smiless::exp
