#pragma once

// The benchmark's three workloads, each set up from a seed and run through
// the simulator's public entry points only:
//  - fleet-keepwarm:    500 keep-warm pipelines, ShardedPlatform at 1 lane;
//  - fleet-sharded-obs: a smaller fleet in 8 lanes on one lane thread, with
//                       faults and full telemetry rendered as results;
//  - paper-colocated:   wl1, wl2, wl3 and ipa under SMIless with the LSTM
//                       predictors, co-located via baselines::run_colocated.

#include <cstdint>
#include <string>

#include "common/json.hpp"

namespace perfbench {

enum class Mode {
  Timed,      ///< nothing attached: the end-to-end measurement
  Traced,     ///< decorators, audit log, bus counting sink, self-profiler, spans
  SetupOnly,  ///< set up, report setup_s, skip the run
};

/// Run `workload` once at `seed` in this process and describe it as JSON:
/// setup and run timings, the request books, the outcome fingerprint,
/// memory by structure and thread counts. Mode::Traced also writes spans to
/// `spans_path` and adds a "layers" object with the per-layer metrics.
/// Throws std::runtime_error when a request-accounting invariant fails.
smiless::json::Value run_workload(const std::string& workload, std::uint64_t seed, Mode mode,
                                  const std::string& spans_path);

}  // namespace perfbench
