#include "faults/fault_injector.hpp"

#include <cmath>

#include "obs/event_bus.hpp"

namespace smiless::faults {

FaultInjector::FaultInjector(FaultSpec spec, Rng& parent) : spec_(std::move(spec)) {
  SMILESS_CHECK(spec_.init_failure_prob >= 0.0 && spec_.init_failure_prob <= 1.0);
  SMILESS_CHECK(spec_.straggler_prob >= 0.0 && spec_.straggler_prob <= 1.0);
  SMILESS_CHECK(spec_.straggler_factor >= 1.0);
  SMILESS_CHECK(spec_.crash_rate >= 0.0);
  SMILESS_CHECK(spec_.mttr > 0.0);
  if (spec_.any()) rng_.emplace(parent.fork(spec_.salt));
}

bool FaultInjector::sample_init_failure() {
  if (spec_.init_failure_prob <= 0.0) return false;
  if (!rng_->bernoulli(spec_.init_failure_prob)) return false;
  ++stats_.init_failures;
  return true;
}

double FaultInjector::inflate_inference(double latency) {
  if (spec_.straggler_prob <= 0.0) return latency;
  if (!rng_->bernoulli(spec_.straggler_prob)) return latency;
  ++stats_.stragglers;
  if (bus_ != nullptr && engine_ != nullptr)
    bus_->publish({.t = engine_->now(),
                   .value = spec_.straggler_factor,
                   .type = obs::EventType::StragglerInjected});
  return latency * spec_.straggler_factor;
}

void FaultInjector::arm(sim::Engine& engine, cluster::Cluster& cluster) {
  engine_ = &engine;
  for (const auto& c : spec_.crashes) {
    SMILESS_CHECK(c.machine >= 0 && static_cast<std::size_t>(c.machine) < cluster.machine_count());
    SMILESS_CHECK(c.duration > 0.0);
    engine.schedule_at(std::max(c.at, engine.now()),
                       [this, &engine, &cluster, m = c.machine, d = c.duration] {
                         crash_machine(engine, cluster, m, d);
                       });
  }
  if (spec_.crash_rate > 0.0) {
    for (std::size_t m = 0; m < cluster.machine_count(); ++m)
      schedule_next_random_crash(engine, cluster, static_cast<int>(m));
  }
}

void FaultInjector::crash_machine(sim::Engine& engine, cluster::Cluster& cluster, int machine,
                                  double duration) {
  if (!cluster.machine_up(machine)) return;  // overlapping outage: already down
  ++stats_.crashes;
  cluster.mark_down(machine);
  if (!std::isfinite(duration)) return;
  engine.schedule_after(duration, [this, &cluster, machine] {
    if (cluster.machine_up(machine)) return;
    ++stats_.recoveries;
    cluster.mark_up(machine);
  });
}

void FaultInjector::schedule_next_random_crash(sim::Engine& engine, cluster::Cluster& cluster,
                                               int machine) {
  const double wait = rng_->exponential(spec_.crash_rate);
  const double at = engine.now() + wait;
  if (spec_.crash_horizon > 0.0 && at > spec_.crash_horizon) return;
  engine.schedule_after(wait, [this, &engine, &cluster, machine] {
    const double repair = rng_->exponential(1.0 / spec_.mttr);
    crash_machine(engine, cluster, machine, repair);
    // Next crash of this machine is drawn from its recovery point.
    engine.schedule_after(repair, [this, &engine, &cluster, machine] {
      schedule_next_random_crash(engine, cluster, machine);
    });
  });
}

}  // namespace smiless::faults
