// StreamingMoments — sliding-window second moments under rank-1 updates.
//
// A monitoring loop (core::LiaMonitor, paper §7) observes one np-dimensional
// snapshot per measurement period and needs the covariance matrix S of the
// most recent `window` snapshots every tick.  Recomputing S from the window
// costs O(window * np^2); this accumulator keeps the dense centred
// cross-product matrix C = sum_l (y_l - mean)(y_l - mean)^T current under
// the shared sliding-window core (stats::WindowMoments: ring, means,
// drift-refresh cadence, checkpoint), so a steady-state tick is two
// symmetric rank-1 updates, O(np^2) independent of the window length, and
// S = C / (n-1) is always available.
//
// The window's samples are served too (centered_flat): the keep-all closed
// form reads them, not S.
//
// The drift refresh recomputes C from the retained window via the blocked
// SYRK kernel (linalg/kernels.hpp).  All update loops are row-parallel with
// per-row independent arithmetic, so results are bit-identical at any
// thread count.
#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "linalg/matrix.hpp"
#include "stats/covariance_source.hpp"
#include "stats/moments.hpp"
#include "stats/sliding_window.hpp"

namespace losstomo::stats {

class StreamingMoments final : public WindowMoments {
 public:
  /// Throws std::invalid_argument for window < 2.
  StreamingMoments(std::size_t dim, StreamingMomentsOptions options);

  // CovarianceSource:
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

 private:
  void rank1(double w) override;
  void recompute() override;
  void grow(std::size_t old_dim) override;
  [[nodiscard]] const char* checkpoint_tag() const override;
  void invalidate() override;

  mutable linalg::Matrix cov_;  // cached S = C / (count-1)
  mutable bool cov_valid_ = false;
  mutable std::unique_ptr<CenteredSnapshots> centered_;  // cached window
};

}  // namespace losstomo::stats
