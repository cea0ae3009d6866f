// StreamingMoments — sliding-window second moments under rank-1 updates.
//
// A monitoring loop (core::LiaMonitor, paper §7) observes one np-dimensional
// snapshot per measurement period and needs the covariance matrix S of the
// most recent `window` snapshots every tick.  Recomputing S from the window
// costs O(window * np^2); this accumulator maintains the running means and
// the centred cross-product matrix C = sum_l (y_l - mean)(y_l - mean)^T
// incrementally, Youngs–Cramer style:
//
//   add y:     delta = y - mean;  mean += delta / n;
//              C += ((n-1)/n) * delta delta^T
//   retire y:  delta = y - mean;  mean -= delta / (n-1);
//              C -= (n/(n-1))  * delta delta^T
//
// so a steady-state tick (retire oldest + add newest) is two symmetric
// rank-1 updates, O(np^2) independent of the window length, and
// S = C / (n-1) is always available.
//
// The ring itself is served too (centered_flat): the keep-all closed form
// reads the window's samples, not S.
//
// Floating-point drift from the incremental updates is bounded by a
// deterministic periodic full refresh: every `refresh_every` pushes the
// means and C are recomputed from the retained window via the blocked SYRK
// kernel (linalg/kernels.hpp).  All update loops are row-parallel with
// per-row independent arithmetic, so results are bit-identical at any
// thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "stats/covariance_source.hpp"
#include "stats/moments.hpp"

namespace losstomo::stats {

struct StreamingMomentsOptions {
  /// Sliding-window length (the paper's m); once full, every push retires
  /// the oldest snapshot.
  std::size_t window = 50;
  /// Full recompute cadence in pushes (drift bound); 0 = 2 * window.
  std::size_t refresh_every = 0;
  /// Worker threads for the rank-1 updates and the refresh SYRK
  /// (0 = library default).  Results are bit-identical at any count.
  std::size_t threads = 0;
};

class StreamingMoments final : public CovarianceSource {
 public:
  StreamingMoments(std::size_t dim, StreamingMomentsOptions options);

  /// Folds one snapshot into the window; retires the oldest snapshot
  /// first when the window is full.  Precondition: y.size() == dim()
  /// (throws std::invalid_argument).  Cost: O(dim^2) — two symmetric
  /// rank-1 updates in the steady state — plus the amortized
  /// O(window * dim^2 / refresh_every) drift refresh.  Single-writer:
  /// do not overlap push() with reads of matrix()/covariance().
  void push(std::span<const double> y);

  // CovarianceSource:
  [[nodiscard]] std::size_t dim() const override { return dim_; }
  [[nodiscard]] std::size_t count() const override { return count_; }
  [[nodiscard]] double covariance(std::size_t i, std::size_t j) const override;
  [[nodiscard]] const linalg::Matrix& matrix() const override;
  [[nodiscard]] bool matrix_is_cheap() const override { return true; }
  /// The retained window's samples, oldest to newest (count() rows of
  /// dim() entries), centred on their exact sample means with
  /// stats::CenteredSnapshots arithmetic — bit for bit what a
  /// BatchCovarianceSource over the same snapshots serves, so the keep-all
  /// closed form reads the same h from either.  Built on the first call
  /// after a push and cached: O(count * dim).  Empty while count() == 0.
  [[nodiscard]] std::span<const double> centered_flat() const override;

  [[nodiscard]] std::size_t window() const { return options_.window; }
  [[nodiscard]] bool full() const { return count_ == options_.window; }
  [[nodiscard]] const linalg::Vector& means() const { return mean_; }
  /// Total snapshots ever pushed.
  [[nodiscard]] std::size_t pushes() const { return pushes_; }
  /// Full recomputes performed so far (diagnostic for the drift tests).
  [[nodiscard]] std::size_t refreshes() const { return refreshes_; }

  // -- Path churn (scenario engine) ---------------------------------------
  //
  // The accumulator's mathematical state is uniform across dimensions: C
  // and the means always equal (up to bounded drift) the moments of the
  // current ring content, whatever values each dimension's slots hold.
  // Churn therefore needs no arithmetic changes — only bookkeeping that
  // marks, per dimension, how many trailing ring slots carry *real*
  // measurements.  Callers must keep pushing a deterministic filler
  // (conventionally 0) for inactive dimensions; a freshly (re)activated
  // dimension becomes pair-ready once `window` further pushes have flushed
  // every filler slot out of the ring.

  /// Marks dimension i active from the next push on; its validity restarts
  /// at zero samples.  No-op when already active.
  void activate_path(std::size_t i);
  /// Marks dimension i inactive: samples(i) drops to 0 and every pair
  /// through i stops being ready.  Its entries keep updating with the
  /// pushed filler so a later activate_path(i) needs no state repair.
  void retire_path(std::size_t i);
  /// Appends one dimension (active, zero samples).  The ring history of the
  /// new dimension is zero-filled, which is exactly the state the
  /// incremental updates expect.  Returns the new dimension's index.
  /// Cost: O(dim * (dim + window)) reallocation — churn events are rare.
  std::size_t add_path();
  /// Batched growth: appends `count` dimensions at once, state-identical to
  /// `count` add_path() calls but with ONE ring/cross reallocation instead
  /// of `count` — the O(change) path for mass-growth events.  Returns the
  /// first new dimension's index.
  std::size_t add_paths(std::size_t count);
  [[nodiscard]] bool path_active(std::size_t i) const {
    return churn_.active(i);
  }

  // CovarianceSource churn override + the derived pair-readiness test
  // (both delegate to the shared stats::PathChurnLedger rule):
  [[nodiscard]] std::size_t samples(std::size_t i) const override;
  [[nodiscard]] bool pair_ready(std::size_t i, std::size_t j) const;

  /// Recomputes means and C from the retained window (oldest to newest),
  /// discarding accumulated rounding drift.  Runs automatically on the
  /// refresh_every cadence; public so callers can pin a drift bound of
  /// their own.
  void refresh();

  // -- Checkpointing (io/checkpoint.hpp) ----------------------------------
  //
  // Serializes the ring, means, cross-products, churn ledger, and cadence
  // counters — everything except the delta_ scratch and the cov_ cache
  // (recomputed on demand) — so a restored accumulator continues the exact
  // push/refresh sequence bit-identically.  restore_state targets an
  // accumulator constructed with the same dim and window and throws
  // io::CheckpointError(kMismatch) otherwise; on failure *this is
  // unchanged.
  void save_state(io::CheckpointWriter& writer) const;
  void restore_state(io::CheckpointReader& reader);

 private:
  void add(std::span<const double> y);
  void retire(std::span<const double> y);
  /// cross_ += w * delta_ delta_^T (row-parallel).
  void rank1(double w);

  std::size_t dim_;
  StreamingMomentsOptions options_;
  PathChurnLedger churn_;      // per-dim activation/validity bookkeeping
  SnapshotMatrix ring_;        // window_ rows; head_ = oldest
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t pushes_ = 0;
  std::size_t since_refresh_ = 0;
  std::size_t refreshes_ = 0;
  linalg::Vector mean_;
  linalg::Vector delta_;       // scratch for the rank-1 updates
  linalg::Matrix cross_;       // C, centred cross-products
  mutable linalg::Matrix cov_; // cached S = C / (count-1)
  mutable bool cov_valid_ = false;
  mutable std::unique_ptr<CenteredSnapshots> centered_;  // cached window
};

}  // namespace losstomo::stats
