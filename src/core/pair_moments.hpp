// PairMoments — sliding-window covariance restricted to the sharing pairs.
//
// The dense stats::StreamingMoments accumulator maintains all np^2 entries
// of the window covariance matrix, O(np^2) per tick.  But the streaming
// drop-negative Phase-1 path only ever READS the covariances of pairs that
// share a link — ~1.3M of the 26M entries on the recorded 5112-path
// overlay.  This accumulator maintains exactly those entries, indexed by a
// shared core::SharingPairStore: a steady tick is O(np + sharing pairs)
// (two rank-1 passes over the stored pair list), and memory is O(np *
// window + pairs) instead of O(np^2).
//
// Ring, means, drift-refresh cadence and checkpoint are the shared
// sliding-window core (stats::WindowMoments), so the two accumulators
// agree entry by entry up to floating-point drift on every stored pair.
// The full covariance matrix and the window's samples are
// deliberately NOT served — matrix() throws and centered_flat() is empty —
// which is why this source only powers the drop-negative policy; a
// keep-all relearn reads the monitor's snapshot window instead.
//
// The pair list grows through SharingPairStore::add_rows (driven by the
// normal equations); add_paths then sizes the pair values to the store.
#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "core/sharing_pairs.hpp"
#include "linalg/matrix.hpp"
#include "stats/sliding_window.hpp"

namespace losstomo::core {

/// Pair-indexed sparse sliding-window covariance accumulator.
///
/// Thread-safety: single-writer (push/refresh/add_paths mutate);
/// reads parallelize internally per options.threads with bit-identical
/// results at any thread count.
class PairMoments final : public stats::WindowMoments {
 public:
  /// `store` must outlive the accumulator and already enumerate the pairs
  /// of the routing matrix the pushed snapshots are measured over; `dim`
  /// must equal store->path_count().
  PairMoments(std::shared_ptr<const SharingPairStore> store, std::size_t dim,
              stats::StreamingMomentsOptions options);

  /// WindowMoments::push, after checking that the store has not grown past
  /// the pair values (throws std::logic_error).  Cost: O(dim +
  /// pair_count()) plus the amortized O(window * pairs / refresh_every)
  /// drift refresh.
  void push(std::span<const double> y) override;

  // CovarianceSource:
  /// O(log deg) pair lookup; returns 0 for pairs that share no link (their
  /// covariance is never consumed by the drop-negative path).
  [[nodiscard]] double covariance(std::size_t i, std::size_t j) const override;
  /// Unsupported: the full S is exactly what this accumulator avoids.
  /// Throws std::logic_error.
  [[nodiscard]] const linalg::Matrix& matrix() const override;
  [[nodiscard]] bool matrix_is_cheap() const override { return false; }

  /// Covariance of stored pair p — the O(1) read the aligned
  /// StreamingNormalEquations refresh uses.  Requires count() >= 2.
  [[nodiscard]] double pair_covariance(std::size_t p) const {
    return cross_[p] / static_cast<double>(count() - 1);
  }
  [[nodiscard]] const SharingPairStore* store() const { return store_.get(); }
  /// Centred cross-product per stored pair, aligned with store()'s
  /// indexing; cov(pair p) = pair_values()[p] / (count() - 1).
  [[nodiscard]] std::span<const double> pair_values() const { return cross_; }

 private:
  /// cross_[p] += w * delta_i delta_j over every stored pair (parallel,
  /// disjoint writes — bit-identical at any thread count).
  void rank1(double w) override;
  void recompute() override;
  /// New pairs appended by SharingPairStore::add_rows start at zero — the
  /// exact centred cross-product of the new dimensions' all-zero history.
  void grow(std::size_t old_dim) override;
  [[nodiscard]] const char* checkpoint_tag() const override;

  std::shared_ptr<const SharingPairStore> store_;
};

}  // namespace losstomo::core
