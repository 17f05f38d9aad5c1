// Burst scaling demo: watch SMIless' Auto-scaler react to a 24x load spike —
// adaptive batching (Eq. 7/8), instance-fleet sizing, and the fall-back to
// base plans once the burst passes (the live view behind Fig. 14).
#include <iostream>

#include "apps/catalog.hpp"
#include "baselines/experiment.hpp"
#include "common/table.hpp"
#include "core/autoscaler.hpp"

using namespace smiless;

int main() {
  const apps::App app = apps::make_image_query(/*sla=*/2.0);
  Rng rng(5);
  const workload::Trace trace = workload::generate_burst_window(0.5, 12.0, rng);

  Rng profile_rng(6);
  baselines::ProfileStore store{profiler::OfflineProfiler{}, profile_rng};

  // First, the Auto-scaler's raw answers: how batch size and fleet size move
  // with the predicted invocation count for one function.
  const auto& ir = store.fitted("IR");
  core::AutoScaler scaler(perf::default_config_space(), perf::Pricing{});
  std::cout << "=== Auto-scaler answers for IR (latency budget 0.4 s) ===\n";
  TextTable plans({"predicted G", "config", "batch B", "instances", "batch latency (s)"});
  for (int g : {1, 4, 12, 32, 96}) {
    const auto d = scaler.solve(ir, g, 0.4, 1.0);
    plans.add_row({std::to_string(g), d.config.to_string(), std::to_string(d.batch),
                   std::to_string(d.instances), TextTable::num(d.batch_latency, 3)});
  }
  plans.print();

  // Then the live platform view through the burst.
  baselines::PolicySettings settings;
  settings.use_lstm = false;
  baselines::ExperimentOptions run_options;
  run_options.platform.record_windows = true;  // the live view reads the window samples
  const auto r = baselines::run_experiment(
      app, trace, baselines::make_policy(baselines::PolicyKind::Smiless, app, store, settings),
      run_options);

  std::cout << "\n=== Pods vs invocations through the burst ===\n";
  TextTable live({"t (s)", "invocations", "pods", "CPU", "GPU"});
  for (const auto& w : r.windows) {
    if (w.window_start >= 60.0) break;
    live.add_row({TextTable::num(w.window_start, 0), std::to_string(w.arrivals),
                  std::to_string(w.instances_total), std::to_string(w.instances_cpu),
                  std::to_string(w.instances_gpu)});
  }
  live.print();
  std::cout << "\nServed " << r.submitted << " requests at $" << TextTable::num(r.cost, 4)
            << " with " << TextTable::num(100 * r.violation_ratio, 1) << "% violations.\n";
  return 0;
}
