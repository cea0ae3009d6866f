#include "stats/streaming.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "io/checkpoint_tags.hpp"
#include "linalg/kernels.hpp"
#include "util/parallel.hpp"

namespace losstomo::stats {

StreamingMoments::StreamingMoments(std::size_t dim,
                                   StreamingMomentsOptions options)
    : WindowMoments(dim, options), cov_(dim, dim) {
  cross_.assign(dim * dim, 0.0);
}

void StreamingMoments::rank1(double w) {
  const std::size_t dim = this->dim();
  const double* delta = this->delta().data();
  double* cross = cross_.data();
  util::parallel_for(
      dim, 64,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const double wi = w * delta[i];
          if (wi == 0.0) continue;
          double* row = cross + i * dim;
          for (std::size_t j = 0; j < dim; ++j) row[j] += wi * delta[j];
        }
      },
      threads());
}

void StreamingMoments::recompute() {
  const std::size_t dim = this->dim();
  const std::size_t count = this->count();
  const auto& mean = means();
  SnapshotMatrix centered(dim, count);
  for (std::size_t l = 0; l < count; ++l) {
    const auto src = ring().row(l);
    auto dst = centered.sample(l);
    for (std::size_t i = 0; i < dim; ++i) dst[i] = src[i] - mean[i];
  }
  cross_ = std::move(
      linalg::blocked_gram(centered.flat().data(), count, dim, 1.0, threads())
          .data());
}

void StreamingMoments::grow(std::size_t old_dim) {
  const std::size_t dim = this->dim();
  std::vector<double> cross(dim * dim, 0.0);
  for (std::size_t i = 0; i < old_dim; ++i) {
    std::copy_n(cross_.begin() + static_cast<std::ptrdiff_t>(i * old_dim),
                old_dim, cross.begin() + static_cast<std::ptrdiff_t>(i * dim));
  }
  cross_ = std::move(cross);
  cov_ = linalg::Matrix(dim, dim);
}

const char* StreamingMoments::checkpoint_tag() const {
  return io::tags::kStreamingMoments;
}

void StreamingMoments::invalidate() {
  cov_valid_ = false;
  centered_.reset();
}

std::span<const double> StreamingMoments::centered_flat() const {
  const std::size_t count = this->count();
  if (count == 0) return {};
  if (!centered_) {
    SnapshotMatrix window(dim(), count);
    for (std::size_t l = 0; l < count; ++l) {
      const auto src = ring().row(l);
      std::copy(src.begin(), src.end(), window.sample(l).begin());
    }
    centered_ = std::make_unique<CenteredSnapshots>(window);
  }
  return centered_->flat();
}

double StreamingMoments::covariance(std::size_t i, std::size_t j) const {
  if (count() < 2) throw std::logic_error("covariance needs >= 2 snapshots");
  return cross_[i * dim() + j] / static_cast<double>(count() - 1);
}

const linalg::Matrix& StreamingMoments::matrix() const {
  if (count() < 2) throw std::logic_error("covariance needs >= 2 snapshots");
  if (!cov_valid_) {
    const std::size_t dim = this->dim();
    const double inv = 1.0 / static_cast<double>(count() - 1);
    const auto& src = cross_;
    auto& dst = cov_.data();
    util::parallel_for(
        dim, 64,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t idx = begin * dim; idx < end * dim; ++idx) {
            dst[idx] = src[idx] * inv;
          }
        },
        threads());
    cov_valid_ = true;
  }
  return cov_;
}

}  // namespace losstomo::stats
