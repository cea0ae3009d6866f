// CovarianceSource — where the Phase-1 estimator gets its second-order
// statistics from.
//
// The covariance system Sigma* = A v only ever consumes pairwise sample
// covariances of the path observations; it does not care how they were
// produced.  This interface decouples the estimator stack
// (core::build_normal_equations / core::estimate_link_variances /
// core::Lia::learn) from the measurement representation, with three
// implementations:
//
//  * BatchCovarianceSource — the reference batch path: wraps the centred
//    m x np snapshot matrix, serves on-demand O(m) pair covariances, and
//    materialises the full covariance matrix S lazily via the blocked SYRK
//    kernel when a consumer asks for it;
//  * stats::StreamingMoments (streaming.hpp) — a sliding-window accumulator
//    that maintains S under O(np^2) rank-1 add/retire updates, so a
//    monitoring loop never pays the O(m np^2) batch recomputation.  It also
//    serves its retained window through centered_flat(), centred exactly
//    as the batch wrapper centres it;
//  * core::PairMoments (core/pair_moments.hpp) — the same sliding window
//    restricted to the sharing pairs of a core::SharingPairStore: O(np +
//    pairs) per update, and neither S nor the window samples are served.
//
// Consumers pick what they read: the drop-negative pairwise accumulation
// reads pair covariances (matrix() or covariance()), the keep-all closed
// form reads centered_flat() — the per-link path sums over the window are
// all it needs, so it never forms S.  Which paths may enter the system is
// not the source's business: the consumer passes a readiness mask
// (core::StreamingNormalEquations::refresh), and the monitor derives it
// from its PathChurnLedger.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "stats/moments.hpp"

namespace losstomo::io {
class CheckpointWriter;
class CheckpointReader;
}  // namespace losstomo::io

namespace losstomo::stats {

/// Abstract supplier of the unbiased sample covariance of an np-dimensional
/// observation vector (paper eq. (7)).
///
/// Thread-safety contract for implementations: all methods here are
/// logically const reads and must be safe to call concurrently *after*
/// matrix() and centered_flat() have been materialised once (both may
/// build a cache on first call); mutating operations (e.g.
/// StreamingMoments::push) are single-writer and must not overlap reads.
class CovarianceSource {
 public:
  virtual ~CovarianceSource() = default;

  /// Observation dimension (number of paths np).
  [[nodiscard]] virtual std::size_t dim() const = 0;
  /// Number of samples backing the current statistics (the window m).
  [[nodiscard]] virtual std::size_t count() const = 0;

  /// Unbiased sample covariance between coordinates i and j.  Requires
  /// count() >= 2.
  [[nodiscard]] virtual double covariance(std::size_t i, std::size_t j) const = 0;

  /// Full dim() x dim() covariance matrix S.  Implementations cache the
  /// result, but the first call may be expensive (see matrix_is_cheap).
  [[nodiscard]] virtual const linalg::Matrix& matrix() const = 0;

  /// True when matrix() is available without significant computation
  /// (streaming accumulators maintain S; batch sources compute it lazily).
  /// Consumers use this to pick between matrix reads and covariance().
  [[nodiscard]] virtual bool matrix_is_cheap() const = 0;

  /// Row-major centred samples (count() rows of dim() entries) when the
  /// implementation retains its window; empty otherwise (core::PairMoments).
  /// The keep-all closed form requires them; the sparse-sharing pairwise
  /// accumulation uses them instead of per-pair covariance() calls.
  [[nodiscard]] virtual std::span<const double> centered_flat() const {
    return {};
  }
};

/// Per-dimension activation bookkeeping of the monitor (core::LiaMonitor):
/// the one readiness rule of the monitoring loop, load-bearing for
/// batch/streaming parity.  A dimension's statistics are valid for
/// min(pushes - activated_at, window_count) trailing samples, and a path's
/// pair equations enter Phase 1 only when its samples cover the full
/// current window.
class PathChurnLedger {
 public:
  explicit PathChurnLedger(std::size_t dim)
      : active_(dim, 1), activated_at_(dim, 0) {}

  [[nodiscard]] std::size_t dim() const { return active_.size(); }
  [[nodiscard]] bool active(std::size_t i) const { return active_[i] != 0; }

  /// Marks dimension i active from the next push on (no-op when already
  /// active); `pushes` is the owner's total push count so far.
  void activate(std::size_t i, std::size_t pushes) {
    if (active_[i]) return;
    active_[i] = 1;
    activated_at_[i] = pushes;
  }
  void retire(std::size_t i) { active_[i] = 0; }
  /// Appends one dimension, active with zero samples.
  void add_dim(std::size_t pushes) {
    active_.push_back(1);
    activated_at_.push_back(pushes);
  }

  /// Valid trailing samples of dimension i given the owner's push count
  /// and current window fill.
  [[nodiscard]] std::size_t samples(std::size_t i, std::size_t pushes,
                                    std::size_t count) const {
    if (!active_[i]) return 0;
    return std::min(pushes - activated_at_[i], count);
  }
  /// True when dimension i's statistics cover the whole (non-empty)
  /// current window.
  [[nodiscard]] bool ready(std::size_t i, std::size_t pushes,
                           std::size_t count) const {
    return count > 0 && samples(i, pushes, count) == count;
  }

  /// Checkpoint hooks (io/checkpoint.hpp): the ledger is pure state, so
  /// save → restore reproduces samples()/ready() exactly.  restore throws
  /// io::CheckpointError(kMismatch) when the serialized dimension differs
  /// from dim(), and kCorrupt when an activation lies past `pushes`, the
  /// owner's restored push count (samples() would wrap and report such a
  /// dimension ready at once).  On failure *this is unchanged.
  void save_state(io::CheckpointWriter& writer) const;
  void restore_state(io::CheckpointReader& reader, std::size_t pushes);

 private:
  std::vector<std::uint8_t> active_;
  std::vector<std::size_t> activated_at_;  // pushes at last activation
};

/// Batch implementation over a snapshot window: the PR-1 path, unchanged in
/// behaviour, behind the CovarianceSource interface.
class BatchCovarianceSource final : public CovarianceSource {
 public:
  /// Centres `y` and owns the result.  `threads` caps the blocked SYRK
  /// worker count when matrix() is materialised (0 = library default).
  explicit BatchCovarianceSource(const SnapshotMatrix& y,
                                 std::size_t threads = 0);
  /// Non-owning view over already-centred snapshots; `centered` must
  /// outlive this source.
  explicit BatchCovarianceSource(const CenteredSnapshots& centered,
                                 std::size_t threads = 0);

  // centered_ points into owned_ for the owning constructor, so default
  // copy/move would dangle.
  BatchCovarianceSource(const BatchCovarianceSource&) = delete;
  BatchCovarianceSource& operator=(const BatchCovarianceSource&) = delete;

  [[nodiscard]] std::size_t dim() const override { return centered_->dim(); }
  [[nodiscard]] std::size_t count() const override {
    return centered_->count();
  }
  [[nodiscard]] double covariance(std::size_t i, std::size_t j) const override {
    return centered_->covariance(i, j);
  }
  [[nodiscard]] const linalg::Matrix& matrix() const override;
  [[nodiscard]] bool matrix_is_cheap() const override {
    return cached_.has_value();
  }
  [[nodiscard]] std::span<const double> centered_flat() const override {
    return centered_->flat();
  }

  [[nodiscard]] const CenteredSnapshots& centered() const { return *centered_; }

 private:
  std::optional<CenteredSnapshots> owned_;
  const CenteredSnapshots* centered_;
  std::size_t threads_;
  mutable std::optional<linalg::Matrix> cached_;  // lazily built S
};

}  // namespace losstomo::stats
