#pragma once

// The benchmark's only reads of the host's clocks and resource counters.
// Every measured number the benchmark reports is built from these; none of
// them ever reaches the simulation.

#include <cstdint>
#include <string>

namespace perfbench {

/// Monotonic wall clock, nanoseconds.
std::uint64_t wall_ns();

/// Wall seconds since an earlier wall_ns() reading.
double seconds_since(std::uint64_t start_ns);

/// User + system CPU seconds consumed by the whole process (every thread).
double process_cpu_s();

/// Peak resident set of this process so far (ru_maxrss), MiB.
double peak_rss_mb();

/// Compiler name and version this binary was built with.
std::string compiler();

/// CMake build type this binary was built with.
std::string build_type();

/// CPU model string from /proc/cpuinfo ("unknown" when unavailable).
std::string cpu_model();

/// Online CPUs as the C++ runtime sees them (at least 1).
unsigned nproc();

}  // namespace perfbench
