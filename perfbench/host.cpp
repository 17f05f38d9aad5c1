#include "host.hpp"

#include <sys/resource.h>

#include <chrono>
#include <ctime>
#include <fstream>
#include <thread>

#include "common/units.hpp"

namespace perfbench {

std::uint64_t wall_ns() {
  // detlint:allow(wall-clock) harness timing around public calls; never fed to the simulation
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t).count());
}

double seconds_since(std::uint64_t start_ns) {
  const std::uint64_t now = wall_ns();
  return now > start_ns ? static_cast<double>(now - start_ns) / smiless::kNanosPerSecond : 0.0;
}

double process_cpu_s() {
  timespec ts{};
  // detlint:allow(wall-clock) process CPU time (all threads) for the cpu_s metric; harness only
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / smiless::kNanosPerSecond;
}

double peak_rss_mb() {
  // ru_maxrss is a memory high-water mark (KiB on Linux): it cannot order or
  // time anything, so no detlint rule covers it.
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string build_type() { return PERFBENCH_BUILD_TYPE; }

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    std::size_t start = colon + 1;
    while (start < line.size() && line[start] == ' ') ++start;
    return line.substr(start);
  }
  return "unknown";
}

unsigned nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace perfbench
