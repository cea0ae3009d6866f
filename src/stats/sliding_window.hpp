// The sliding window of the most recent m snapshots (paper §7: Phase 1
// learns from the m snapshots preceding the one it diagnoses), in one
// place for every consumer.
//
//  * SnapshotRing — the window itself: a fixed-capacity ring of
//    np-dimensional rows read in logical (oldest-to-newest) order.  The
//    monitor's window engines (batch, and streaming keep-all) read it at
//    every relearn; the incremental accumulators keep one to retire the
//    oldest row and to recompute their moments exactly.
//  * WindowMoments — the shared core of the incremental accumulators
//    (stats::StreamingMoments, dense; core::PairMoments, sharing pairs
//    only).  It keeps the ring, the running means, the drift-refresh
//    cadence and the checkpoint of all of these, and leaves the
//    accumulator only its cross-product layout and two kernels: the
//    symmetric rank-1 update and the exact recompute.
//
// Growth appends dimensions with an all-zero history (a zero tail on every
// retained row).  For the incremental invariant that IS the new
// dimension's history, and every row of a grown window has the grown width.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "stats/covariance_source.hpp"
#include "stats/moments.hpp"

namespace losstomo::stats {

/// Fixed-capacity ring of the `window` most recent snapshots.
///
/// Thread-safety: plain storage — concurrent reads are safe; push and
/// add_dims are single-writer.
class SnapshotRing {
 public:
  /// Throws std::invalid_argument for window < 2.
  SnapshotRing(std::size_t dim, std::size_t window);

  [[nodiscard]] std::size_t dim() const { return rows_.dim(); }
  [[nodiscard]] std::size_t window() const { return rows_.count(); }
  /// Rows currently held (at most window()).
  [[nodiscard]] std::size_t count() const { return count_; }
  /// Total snapshots ever pushed.
  [[nodiscard]] std::size_t pushes() const { return pushes_; }
  [[nodiscard]] bool full() const { return count_ == rows_.count(); }

  /// Row l of the window in logical order: 0 is the oldest, count() - 1
  /// the newest.  Precondition: l < count().
  [[nodiscard]] std::span<const double> row(std::size_t l) const {
    return rows_.sample((head_ + l) % rows_.count());
  }

  /// Appends a snapshot, overwriting the oldest row when full.  Throws
  /// std::invalid_argument unless y.size() == dim().
  void push(std::span<const double> y);

  /// Widens every row by `count` trailing zeros (one reallocation).
  void add_dims(std::size_t count);

  /// Checkpoint hooks (io/checkpoint.hpp): the held rows in logical order
  /// and the push count.  restore targets a ring of the same dim and
  /// window (io::CheckpointError(kMismatch) otherwise); on failure *this
  /// is unchanged.
  void save_state(io::CheckpointWriter& writer) const;
  void restore_state(io::CheckpointReader& reader);

 private:
  SnapshotMatrix rows_;  // window rows of dim entries; head_ = oldest
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t pushes_ = 0;
};

struct StreamingMomentsOptions {
  /// Sliding-window length (the paper's m); once full, every push retires
  /// the oldest snapshot.
  std::size_t window = 50;
  /// Full recompute cadence in pushes (drift bound); 0 = 2 * window.
  std::size_t refresh_every = 0;
  /// Worker threads for the rank-1 updates and the refresh (0 = library
  /// default).  Results are bit-identical at any count.
  std::size_t threads = 0;
};

/// Sliding-window moments under rank-1 updates: the running means and a
/// centred cross-product store C kept Youngs–Cramer style,
///
///   add y:     delta = y - mean;  mean += delta / n;
///              C += ((n-1)/n) * delta delta^T
///   retire y:  delta = y - mean;  mean -= delta / (n-1);
///              C -= (n/(n-1))  * delta delta^T
///
/// so a steady-state push (retire oldest + add newest) is two rank-1
/// updates whose cost is the accumulator's (O(np^2) dense, O(np + pairs)
/// pair-indexed), independent of the window length.  Every
/// `refresh_every` pushes the means and C are recomputed from the ring in
/// logical order, discarding accumulated rounding drift.
///
/// Path churn is not the accumulator's business: C and the means always
/// equal (up to bounded drift) the moments of the ring content, whatever
/// each dimension's slots hold.  Callers push a deterministic filler
/// (conventionally 0) for inactive dimensions, and the caller's
/// PathChurnLedger decides which entries are real (core::LiaMonitor: a
/// (re)activated path is ready once `window` further pushes have flushed
/// every filler slot out of the ring).
///
/// Thread-safety: single-writer (push, refresh and growth mutate);
/// the kernels parallelize internally with bit-identical results at any
/// thread count.
class WindowMoments : public CovarianceSource {
 public:
  ~WindowMoments() override = default;
  // Held and driven through this base (core::LiaMonitor), never copied.
  WindowMoments(const WindowMoments&) = delete;
  WindowMoments& operator=(const WindowMoments&) = delete;
  WindowMoments(WindowMoments&&) = delete;
  WindowMoments& operator=(WindowMoments&&) = delete;

  /// Folds one snapshot into the window, retiring the oldest first when the
  /// window is full.  Throws std::invalid_argument unless y.size() ==
  /// dim().  Do not overlap with reads.
  virtual void push(std::span<const double> y);

  /// Recomputes the means and C from the retained window.  Runs on the
  /// refresh_every cadence; public so callers can pin a drift bound of
  /// their own.
  void refresh();

  // CovarianceSource:
  [[nodiscard]] std::size_t dim() const override { return ring_.dim(); }
  [[nodiscard]] std::size_t count() const override { return ring_.count(); }

  [[nodiscard]] std::size_t window() const { return ring_.window(); }
  [[nodiscard]] bool full() const { return ring_.full(); }
  [[nodiscard]] const linalg::Vector& means() const { return mean_; }
  /// Total snapshots ever pushed.
  [[nodiscard]] std::size_t pushes() const { return ring_.pushes(); }
  /// Full recomputes performed so far (diagnostic for the drift tests).
  [[nodiscard]] std::size_t refreshes() const { return refreshes_; }

  /// Appends `count` dimensions (all-zero history) with one reallocation
  /// of the ring and of C.  A pair-indexed
  /// accumulator sizes C to its store, so grow the store first.  Returns
  /// the first new dimension's index.
  std::size_t add_paths(std::size_t count);

  // -- Checkpointing (io/checkpoint.hpp) ----------------------------------
  //
  // Serializes the ring, the cadence counters, the means and C —
  // everything but scratch and caches — so a restored accumulator
  // continues the exact push/refresh sequence bit-identically.  restore
  // targets an accumulator constructed with the same dim, window and C
  // size, and throws io::CheckpointError(kMismatch) otherwise; on failure
  // *this is unchanged.
  void save_state(io::CheckpointWriter& writer) const;
  void restore_state(io::CheckpointReader& reader);

 protected:
  /// Throws std::invalid_argument for window < 2.
  WindowMoments(std::size_t dim, StreamingMomentsOptions options);

  [[nodiscard]] const SnapshotRing& ring() const { return ring_; }
  /// The current push's y - mean (valid inside rank1).
  [[nodiscard]] const linalg::Vector& delta() const { return delta_; }
  [[nodiscard]] std::size_t threads() const { return options_.threads; }

  /// C in the accumulator's layout (dense dim x dim row-major, or one
  /// entry per stored pair).
  std::vector<double> cross_;

 private:
  /// C += w * delta() delta()^T over the stored entries.
  virtual void rank1(double w) = 0;
  /// C = exact centred cross-products of ring() about means(); count() > 0.
  virtual void recompute() = 0;
  /// Resizes C after growth from `old_dim` to dim() dimensions; the new
  /// entries are zero.
  virtual void grow(std::size_t old_dim) = 0;
  /// The checkpoint section tag (io/checkpoint_tags.hpp).
  [[nodiscard]] virtual const char* checkpoint_tag() const = 0;
  /// Drops caches derived from the window (called on every mutation).
  virtual void invalidate() {}

  void add(std::span<const double> y, std::size_t count);
  void retire(std::span<const double> y, std::size_t count);

  StreamingMomentsOptions options_;
  SnapshotRing ring_;
  std::size_t since_refresh_ = 0;
  std::size_t refreshes_ = 0;
  linalg::Vector mean_;
  linalg::Vector delta_;  // scratch for the rank-1 updates
};

}  // namespace losstomo::stats
