// perfbench — one run of one workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --scratch <dir>
//
// Prints a human-readable report, then as its last line one JSON object:
// correct / attempted / failed / metrics (end-to-end with --trace 0,
// per-layer with --trace 1), plus the deterministic values and the input
// checksum that run.py compares across runs at the same seed.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>
#include <set>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Metric;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --scratch <dir>\n",
               why);
  return 2;
}

/// JSON object of metrics; non-finite values fail the run instead of
/// producing invalid JSON.
std::string metrics_json(const std::vector<Metric>& metrics, bool with_unit,
                         perfbench::RunResult& result) {
  std::string s = "{";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    double value = m.value;
    if (!std::isfinite(value)) {
      result.correct = false;
      result.problems.push_back("non-finite metric " + m.name);
      value = 0.0;
    }
    std::snprintf(buf, sizeof buf, "%.17g", value);
    s += (i ? ", \"" : "\"") + m.name + "\": ";
    s += with_unit ? std::string("{\"value\": ") + buf + ", \"unit\": \"" +
                         m.unit + "\"}"
                   : std::string(buf);
  }
  return s + "}";
}

void print_lines(const char* section, const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("%-10s %-30s %.6g %s\n", section, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::set<std::string> given;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    given.insert(key);
    try {
      if (key == "--workload") {
        config.workload = value;
      } else if (key == "--seed") {
        config.seed = std::stoull(value);
      } else if (key == "--seconds") {
        config.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        config.trace = value == "1";
      } else if (key == "--scratch") {
        config.scratch_dir = value;
      } else {
        return usage(("unknown argument " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  for (const char* key :
       {"--workload", "--seed", "--seconds", "--trace", "--scratch"}) {
    if (given.count(key) == 0) {
      return usage((std::string(key) + " is required").c_str());
    }
  }
  if (!(config.seconds > 0.0)) return usage("--seconds must be positive");

  perfbench::RunResult result;
  try {
    result = perfbench::run(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::printf("workload   %s seed=%" PRIu64 " trace=%d timed_ticks=%zu\n",
              config.workload.c_str(), config.seed, config.trace ? 1 : 0,
              perfbench::timed_ticks(config.workload, config.seconds));
  std::printf("checksum   input 0x%016" PRIx64 "\n", result.input_checksum);
  print_lines("metric", result.metrics);
  print_lines("extra", result.extra);
  print_lines("determin.", result.deterministic);
  for (const auto& m : result.metrics) {
    if (!perfbench::valid_name(m.name)) {
      result.correct = false;
      result.problems.push_back("invalid metric name " + m.name);
    }
  }
  const std::string metrics = metrics_json(result.metrics, true, result);
  const std::string deterministic =
      metrics_json(result.deterministic, false, result);
  for (const auto& p : result.problems) std::printf("problem    %s\n", p.c_str());

  char checksum[32];
  std::snprintf(checksum, sizeof checksum, "0x%016" PRIx64,
                result.input_checksum);
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s, \"deterministic\": %s, \"input_checksum\": \"%s\"}\n",
      result.correct ? "true" : "false", result.attempted, result.failed,
      metrics.c_str(), deterministic.c_str(), checksum);
  return 0;
}
