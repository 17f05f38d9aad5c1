#pragma once

// Per-layer micro rows: each times only public calls into one layer, on
// inputs generated from the seed, and records its operation count.

#include <cstdint>

#include "common/json.hpp"

namespace perfbench {

/// Run every micro row. Writes each row's per-operation cost into `layers`
/// under its metric name and its operation count into doc["micro_ops"].
void add_micro_rows(smiless::json::Value& layers, smiless::json::Value& doc, std::uint64_t seed);

}  // namespace perfbench
