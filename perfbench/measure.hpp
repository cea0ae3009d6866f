// Measurement helpers of the benchmark: the percentile rule, the input
// checksum, the inference parity guard, metric-name validation and the
// one-line JSON result.  Header-only and free of workload knowledge, so the
// unit tests in tests/ exercise exactly what the benchmark runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/loss_solver.hpp"

namespace perfbench {

/// Samples beyond a tail percentile the rule demands before it is reported.
inline constexpr std::size_t kTailSamplesBeyond = 10;

/// Nearest-rank percentile q in (0, 1] of `samples`: the smallest sample
/// with at least a q share of the samples at or below it.
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Samples strictly beyond the nearest-rank q-percentile position.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(rank, n);
}

/// The tail percentile, or nullopt when fewer than kTailSamplesBeyond
/// samples lie beyond it (the run was too short to report that tail).
inline std::optional<double> tail_percentile(const std::vector<double>& samples,
                                             double q) {
  if (samples_beyond(samples.size(), q) < kTailSamplesBeyond) {
    return std::nullopt;
  }
  return percentile(samples, q);
}

inline double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const auto n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// FNV-1a over the exact bit patterns of the fed doubles (and integers):
/// identical inputs give identical checksums on any machine with IEEE-754
/// doubles.
class Checksum {
 public:
  void add(std::span<const double> values) {
    for (const double v : values) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      add(bits);
    }
  }
  void add(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (word >> (8 * b)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Byte-for-byte comparison of inferences produced by two code paths that
/// must agree exactly (rebuilt tick vs LiaMonitor::observe, a restored
/// monitor vs the one it replaced).  A missing inference on either side is
/// a mismatch.
class ParityGuard {
 public:
  void check(const std::optional<losstomo::core::LossInference>& expected,
             const std::optional<losstomo::core::LossInference>& actual) {
    ++checked_;
    if (!expected || !actual || !same(*expected, *actual)) ++mismatches_;
  }
  [[nodiscard]] std::size_t checked() const { return checked_; }
  [[nodiscard]] std::size_t mismatches() const { return mismatches_; }

  static bool same(const losstomo::core::LossInference& a,
                   const losstomo::core::LossInference& b) {
    return bytes_equal(a.loss, b.loss) && bytes_equal(a.phi, b.phi) &&
           a.removed == b.removed &&
           bytes_equal(std::span<const double>(&a.residual_norm, 1),
                       std::span<const double>(&b.residual_norm, 1));
  }

 private:
  static bool bytes_equal(std::span<const double> a,
                          std::span<const double> b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
  }

  std::size_t checked_ = 0;
  std::size_t mismatches_ = 0;
};

/// A diagnosing tick passes when it produced an inference whose every
/// per-link loss is finite and inside [0, 1].
inline bool inference_valid(
    const std::optional<losstomo::core::LossInference>& inference,
    std::size_t links) {
  if (!inference || inference->loss.size() != links) return false;
  return std::all_of(inference->loss.begin(), inference->loss.end(),
                     [](double q) { return std::isfinite(q) && q >= 0.0 && q <= 1.0; });
}

/// Emitted metric and unit names: [A-Za-z0-9_.-]+, at most 64 characters,
/// starting with a letter or digit.
inline bool valid_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name.front()))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

}  // namespace perfbench
