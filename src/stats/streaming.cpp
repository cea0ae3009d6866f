#include "stats/streaming.hpp"

#include <algorithm>
#include <stdexcept>

#include "io/checkpoint.hpp"
#include "io/checkpoint_tags.hpp"
#include "linalg/kernels.hpp"
#include "util/parallel.hpp"

namespace losstomo::stats {

StreamingMoments::StreamingMoments(std::size_t dim,
                                   StreamingMomentsOptions options)
    : dim_(dim),
      options_(options),
      churn_(dim),
      ring_(dim, options.window),
      mean_(dim, 0.0),
      delta_(dim, 0.0),
      cross_(dim, dim),
      cov_(dim, dim) {
  if (options_.window < 2) throw std::invalid_argument("window must be >= 2");
  if (options_.refresh_every == 0) {
    options_.refresh_every = 2 * options_.window;
  }
}

void StreamingMoments::activate_path(std::size_t i) {
  if (i >= dim_) throw std::invalid_argument("path out of range");
  churn_.activate(i, pushes_);
}

void StreamingMoments::retire_path(std::size_t i) {
  if (i >= dim_) throw std::invalid_argument("path out of range");
  churn_.retire(i);
}

std::size_t StreamingMoments::add_path() { return add_paths(1); }

std::size_t StreamingMoments::add_paths(std::size_t count) {
  if (count == 0) throw std::invalid_argument("add_paths needs count >= 1");
  const std::size_t index = dim_;
  const std::size_t next = dim_ + count;
  // Grow the ring: old rows widen with a zero tail — for the incremental
  // invariant the new dimensions' history IS zero.
  SnapshotMatrix ring(next, options_.window);
  for (std::size_t l = 0; l < options_.window; ++l) {
    const auto src = ring_.sample(l);
    std::copy(src.begin(), src.end(), ring.sample(l).begin());
  }
  ring_ = std::move(ring);
  linalg::Matrix cross(next, next);
  for (std::size_t i = 0; i < dim_; ++i) {
    const auto src = cross_.row(i);
    std::copy(src.begin(), src.end(), cross.row(i).begin());
  }
  cross_ = std::move(cross);
  cov_ = linalg::Matrix(next, next);
  cov_valid_ = false;
  centered_.reset();
  mean_.resize(next, 0.0);
  delta_.resize(next, 0.0);
  for (std::size_t k = 0; k < count; ++k) churn_.add_dim(pushes_);
  dim_ = next;
  return index;
}

std::size_t StreamingMoments::samples(std::size_t i) const {
  return churn_.samples(i, pushes_, count_);
}

bool StreamingMoments::pair_ready(std::size_t i, std::size_t j) const {
  return churn_.pair_ready(i, j, pushes_, count_);
}

void StreamingMoments::rank1(double w) {
  util::parallel_for(
      dim_, 64,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const double wi = w * delta_[i];
          if (wi == 0.0) continue;
          auto row = cross_.row(i);
          for (std::size_t j = 0; j < dim_; ++j) row[j] += wi * delta_[j];
        }
      },
      options_.threads);
}

void StreamingMoments::add(std::span<const double> y) {
  const double n1 = static_cast<double>(count_ + 1);
  for (std::size_t i = 0; i < dim_; ++i) delta_[i] = y[i] - mean_[i];
  for (std::size_t i = 0; i < dim_; ++i) mean_[i] += delta_[i] / n1;
  if (count_ > 0) rank1(static_cast<double>(count_) / n1);
  ++count_;
}

void StreamingMoments::retire(std::span<const double> y) {
  const double n = static_cast<double>(count_);
  for (std::size_t i = 0; i < dim_; ++i) delta_[i] = y[i] - mean_[i];
  if (count_ == 1) {
    std::fill(mean_.begin(), mean_.end(), 0.0);
    std::fill(cross_.data().begin(), cross_.data().end(), 0.0);
    count_ = 0;
    return;
  }
  const double n1 = n - 1.0;
  for (std::size_t i = 0; i < dim_; ++i) mean_[i] -= delta_[i] / n1;
  rank1(-n / n1);
  --count_;
}

void StreamingMoments::push(std::span<const double> y) {
  if (y.size() != dim_) throw std::invalid_argument("snapshot size != dim");
  std::size_t slot;
  if (count_ == options_.window) {
    slot = head_;
    retire(ring_.sample(head_));
    head_ = (head_ + 1) % options_.window;
  } else {
    slot = (head_ + count_) % options_.window;
  }
  std::copy(y.begin(), y.end(), ring_.sample(slot).begin());
  add(y);
  ++pushes_;
  cov_valid_ = false;
  centered_.reset();
  if (++since_refresh_ >= options_.refresh_every) refresh();
}

void StreamingMoments::refresh() {
  since_refresh_ = 0;
  ++refreshes_;
  cov_valid_ = false;
  if (count_ == 0) return;
  // Logical (oldest-to-newest) order, so the result is independent of the
  // ring head position.
  SnapshotMatrix centered(dim_, count_);
  std::fill(mean_.begin(), mean_.end(), 0.0);
  for (std::size_t l = 0; l < count_; ++l) {
    const auto src = ring_.sample((head_ + l) % options_.window);
    for (std::size_t i = 0; i < dim_; ++i) mean_[i] += src[i];
  }
  const double inv = 1.0 / static_cast<double>(count_);
  for (auto& m : mean_) m *= inv;
  for (std::size_t l = 0; l < count_; ++l) {
    const auto src = ring_.sample((head_ + l) % options_.window);
    auto dst = centered.sample(l);
    for (std::size_t i = 0; i < dim_; ++i) dst[i] = src[i] - mean_[i];
  }
  cross_ = linalg::blocked_gram(centered.flat().data(), count_, dim_, 1.0,
                                options_.threads);
}

void StreamingMoments::save_state(io::CheckpointWriter& writer) const {
  writer.begin_section(io::tags::kStreamingMoments);
  writer.usize(dim_);
  writer.usize(options_.window);
  churn_.save_state(writer);
  writer.doubles(ring_.flat());
  writer.usize(head_);
  writer.usize(count_);
  writer.usize(pushes_);
  writer.usize(since_refresh_);
  writer.usize(refreshes_);
  writer.doubles(mean_);
  writer.doubles(cross_.data());
  writer.end_section();
}

void StreamingMoments::restore_state(io::CheckpointReader& reader) {
  reader.expect_section(io::tags::kStreamingMoments);
  const std::size_t dim = reader.usize();
  const std::size_t window = reader.usize();
  if (dim != dim_ || window != options_.window) {
    throw io::CheckpointError(
        io::CheckpointErrorKind::kMismatch,
        "streaming moments shape " + std::to_string(dim) + "x" +
            std::to_string(window) + ", expected " + std::to_string(dim_) +
            "x" + std::to_string(options_.window));
  }
  // Parse everything into temporaries, validate, then commit with moves so
  // a corrupt section leaves *this untouched.
  PathChurnLedger churn = churn_;
  churn.restore_state(reader);
  std::vector<double> ring = reader.doubles();
  const std::size_t head = reader.usize();
  const std::size_t count = reader.usize();
  const std::size_t pushes = reader.usize();
  const std::size_t since_refresh = reader.usize();
  const std::size_t refreshes = reader.usize();
  std::vector<double> mean = reader.doubles();
  std::vector<double> cross = reader.doubles();
  reader.end_section();
  if (ring.size() != dim_ * options_.window || head >= options_.window ||
      count > options_.window || mean.size() != dim_ ||
      cross.size() != dim_ * dim_) {
    throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                              "streaming moments state is inconsistent");
  }
  churn_ = std::move(churn);
  std::copy(ring.begin(), ring.end(), ring_.sample(0).data());
  head_ = head;
  count_ = count;
  pushes_ = pushes;
  since_refresh_ = since_refresh;
  refreshes_ = refreshes;
  mean_ = std::move(mean);
  std::copy(cross.begin(), cross.end(), cross_.data().begin());
  cov_valid_ = false;
  centered_.reset();
}

std::span<const double> StreamingMoments::centered_flat() const {
  if (count_ == 0) return {};
  if (!centered_) {
    SnapshotMatrix window(dim_, count_);
    for (std::size_t l = 0; l < count_; ++l) {
      const auto src = ring_.sample((head_ + l) % options_.window);
      std::copy(src.begin(), src.end(), window.sample(l).begin());
    }
    centered_ = std::make_unique<CenteredSnapshots>(window);
  }
  return centered_->flat();
}

double StreamingMoments::covariance(std::size_t i, std::size_t j) const {
  if (count_ < 2) throw std::logic_error("covariance needs >= 2 snapshots");
  return cross_(i, j) / static_cast<double>(count_ - 1);
}

const linalg::Matrix& StreamingMoments::matrix() const {
  if (count_ < 2) throw std::logic_error("covariance needs >= 2 snapshots");
  if (!cov_valid_) {
    const double inv = 1.0 / static_cast<double>(count_ - 1);
    const auto& src = cross_.data();
    auto& dst = cov_.data();
    util::parallel_for(
        dim_, 64,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t idx = begin * dim_; idx < end * dim_; ++idx) {
            dst[idx] = src[idx] * inv;
          }
        },
        options_.threads);
    cov_valid_ = true;
  }
  return cov_;
}

}  // namespace losstomo::stats
