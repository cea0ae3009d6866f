// The benchmark's three workloads over the public losstomo API.  Each is a
// closed loop with one client (the next snapshot goes in when the previous
// diagnosis returns), single-threaded, with inputs generated from the seed
// before any timing starts.  See README.md for why each workload exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  /// Sizes the timed phase; see timed_ticks().
  double seconds = 0.0;
  /// false: end-to-end metrics; true: the separate per-layer traced run.
  bool trace = false;
  /// Directory for the replay trace file (created if missing).
  std::string scratch_dir;
};

struct RunResult {
  bool correct = true;
  std::size_t attempted = 0;  // diagnosing ticks after warm-up
  std::size_t failed = 0;     // of those: threw, no inference, or bad loss
  std::vector<Metric> metrics;        // the JSON "metrics" object
  std::vector<Metric> deterministic;  // must repeat exactly at a seed
  std::vector<Metric> extra;          // printed, not part of the JSON
  std::vector<std::string> problems;  // why `correct` is false
  std::uint64_t input_checksum = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();
[[nodiscard]] const std::vector<std::string>& end_to_end_names();
[[nodiscard]] const std::vector<std::string>& per_layer_names();

/// Timed-phase tick count for a workload and --seconds value: the larger of
/// the workload's floor (which leaves >= 10 steady ticks beyond p90) and
/// seconds x its nominal tick rate.  The tick count, not the clock, ends the
/// phase, so every deterministic value repeats exactly at a given seed.
[[nodiscard]] std::size_t timed_ticks(const std::string& workload,
                                      double seconds);

/// Runs one workload; throws std::invalid_argument for an unknown name.
[[nodiscard]] RunResult run(const RunConfig& config);

/// Checksum of the first `rows` monitor inputs the workload generates from
/// `seed` (overlay_churn also folds in its event timeline), exactly as the
/// run's input checksum accumulates them.
[[nodiscard]] std::uint64_t input_checksum(const std::string& workload,
                                           std::uint64_t seed,
                                           std::size_t rows);

}  // namespace perfbench
