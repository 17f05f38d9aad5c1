// perfbench_cell: runs one benchmark workload once in this process and
// prints the result as one JSON line on stdout. perfbench/run.py launches it
// once per measured run, so each run's peak RSS is that of a fresh process.
//
//   perfbench_cell info
//   perfbench_cell run --workload NAME --seed N [--setup-only | --traced --spans PATH]
//
// Exit codes: 0 ok, 1 correctness-gate failure or error, 2 usage.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common/json.hpp"
#include "host.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_cell info\n"
               "       perfbench_cell run --workload NAME --seed N\n"
               "                            [--setup-only | --traced --spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using smiless::json::Value;
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode == "info") {
    Value v = Value::object();
    v["nproc"] = static_cast<unsigned long long>(perfbench::nproc());
    v["cpu_model"] = perfbench::cpu_model();
    v["compiler"] = perfbench::compiler();
    v["build_type"] = perfbench::build_type();
    std::printf("%s\n", v.dump().c_str());
    return 0;
  }
  if (mode != "run") return usage();

  std::string workload;
  std::string spans;
  unsigned long long seed = 0;
  bool have_seed = false;
  perfbench::Mode mode_flag = perfbench::Mode::Timed;
  for (int i = 2; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--workload") == 0 && has_value) {
      workload = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') return usage();
      have_seed = true;
    } else if (std::strcmp(argv[i], "--spans") == 0 && has_value) {
      spans = argv[++i];
    } else if (std::strcmp(argv[i], "--traced") == 0) {
      mode_flag = perfbench::Mode::Traced;
    } else if (std::strcmp(argv[i], "--setup-only") == 0) {
      mode_flag = perfbench::Mode::SetupOnly;
    } else {
      return usage();
    }
  }
  if (workload.empty() || !have_seed) return usage();

  try {
    const Value result = perfbench::run_workload(workload, seed, mode_flag, spans);
    std::printf("%s\n", result.dump().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_cell: %s: %s\n", workload.c_str(), e.what());
    return 1;
  }
  return 0;
}
