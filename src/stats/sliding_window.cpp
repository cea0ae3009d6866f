#include "stats/sliding_window.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "io/checkpoint.hpp"
#include "io/checkpoint_tags.hpp"

namespace losstomo::stats {

namespace {

std::size_t checked_window(std::size_t window) {
  if (window < 2) throw std::invalid_argument("window must be >= 2");
  return window;
}

}  // namespace

SnapshotRing::SnapshotRing(std::size_t dim, std::size_t window)
    : rows_(dim, checked_window(window)) {}

void SnapshotRing::push(std::span<const double> y) {
  if (y.size() != dim()) throw std::invalid_argument("snapshot size != dim");
  std::size_t slot;
  if (full()) {
    slot = head_;
    head_ = (head_ + 1) % window();
  } else {
    slot = (head_ + count_) % window();
    ++count_;
  }
  std::copy(y.begin(), y.end(), rows_.sample(slot).begin());
  ++pushes_;
}

void SnapshotRing::add_dims(std::size_t count) {
  SnapshotMatrix rows(dim() + count, window());
  for (std::size_t l = 0; l < window(); ++l) {
    const auto src = rows_.sample(l);
    std::copy(src.begin(), src.end(), rows.sample(l).begin());
  }
  rows_ = std::move(rows);
}

void SnapshotRing::save_state(io::CheckpointWriter& writer) const {
  writer.begin_section(io::tags::kSnapshotRing);
  writer.usize(dim());
  writer.usize(window());
  writer.usize(pushes_);
  writer.usize(count_);
  std::vector<double> held;
  held.reserve(count_ * dim());
  for (std::size_t l = 0; l < count_; ++l) {
    const auto src = row(l);
    held.insert(held.end(), src.begin(), src.end());
  }
  writer.doubles(held);
  writer.end_section();
}

void SnapshotRing::restore_state(io::CheckpointReader& reader) {
  reader.expect_section(io::tags::kSnapshotRing);
  const std::size_t dim = reader.usize();
  const std::size_t window = reader.usize();
  if (dim != this->dim() || window != this->window()) {
    throw io::CheckpointError(
        io::CheckpointErrorKind::kMismatch,
        "snapshot ring shape " + std::to_string(dim) + "x" +
            std::to_string(window) + ", expected " +
            std::to_string(this->dim()) + "x" + std::to_string(this->window()));
  }
  const std::size_t pushes = reader.usize();
  const std::size_t count = reader.usize();
  const std::vector<double> held = reader.doubles();
  reader.end_section();
  if (count > window || count > pushes || held.size() != count * dim) {
    throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                              "snapshot ring state is inconsistent");
  }
  // Restored in logical order from slot 0.
  std::copy(held.begin(), held.end(), rows_.sample(0).data());
  head_ = 0;
  count_ = count;
  pushes_ = pushes;
}

WindowMoments::WindowMoments(std::size_t dim, StreamingMomentsOptions options)
    : options_(options),
      ring_(dim, options.window),
      mean_(dim, 0.0),
      delta_(dim, 0.0) {
  if (options_.refresh_every == 0) {
    options_.refresh_every = 2 * options_.window;
  }
}

std::size_t WindowMoments::add_paths(std::size_t count) {
  if (count == 0) throw std::invalid_argument("add_paths needs count >= 1");
  const std::size_t index = dim();
  ring_.add_dims(count);
  mean_.resize(dim(), 0.0);
  delta_.resize(dim(), 0.0);
  grow(index);
  invalidate();
  return index;
}

void WindowMoments::add(std::span<const double> y, std::size_t count) {
  const std::size_t dim = this->dim();
  const double n1 = static_cast<double>(count + 1);
  for (std::size_t i = 0; i < dim; ++i) delta_[i] = y[i] - mean_[i];
  for (std::size_t i = 0; i < dim; ++i) mean_[i] += delta_[i] / n1;
  if (count > 0) rank1(static_cast<double>(count) / n1);
}

void WindowMoments::retire(std::span<const double> y, std::size_t count) {
  const std::size_t dim = this->dim();
  const double n = static_cast<double>(count);
  for (std::size_t i = 0; i < dim; ++i) delta_[i] = y[i] - mean_[i];
  const double n1 = n - 1.0;
  for (std::size_t i = 0; i < dim; ++i) mean_[i] -= delta_[i] / n1;
  rank1(-n / n1);
}

void WindowMoments::push(std::span<const double> y) {
  if (y.size() != dim()) throw std::invalid_argument("snapshot size != dim");
  // Samples folded into the moments; a full window (>= 2 rows) retires
  // its oldest row before the ring overwrites it.
  std::size_t count = ring_.count();
  if (ring_.full()) {
    retire(ring_.row(0), count);
    --count;
  }
  ring_.push(y);
  add(y, count);
  invalidate();
  if (++since_refresh_ >= options_.refresh_every) refresh();
}

void WindowMoments::refresh() {
  since_refresh_ = 0;
  ++refreshes_;
  invalidate();
  const std::size_t count = ring_.count();
  if (count == 0) return;
  // Logical (oldest-to-newest) order, so the result is independent of the
  // ring head position.
  const std::size_t dim = this->dim();
  std::fill(mean_.begin(), mean_.end(), 0.0);
  for (std::size_t l = 0; l < count; ++l) {
    const auto src = ring_.row(l);
    for (std::size_t i = 0; i < dim; ++i) mean_[i] += src[i];
  }
  const double inv = 1.0 / static_cast<double>(count);
  for (auto& m : mean_) m *= inv;
  recompute();
}

void WindowMoments::save_state(io::CheckpointWriter& writer) const {
  writer.begin_section(checkpoint_tag());
  writer.usize(cross_.size());
  ring_.save_state(writer);
  writer.usize(since_refresh_);
  writer.usize(refreshes_);
  writer.doubles(mean_);
  writer.doubles(cross_);
  writer.end_section();
}

void WindowMoments::restore_state(io::CheckpointReader& reader) {
  reader.expect_section(checkpoint_tag());
  const std::size_t cross_size = reader.usize();
  if (cross_size != cross_.size()) {
    throw io::CheckpointError(
        io::CheckpointErrorKind::kMismatch,
        "window moments hold " + std::to_string(cross_size) +
            " cross-products, expected " + std::to_string(cross_.size()));
  }
  // Parse everything into temporaries, validate, then commit with moves so
  // a corrupt section leaves *this untouched.
  SnapshotRing ring(dim(), window());
  ring.restore_state(reader);
  const std::size_t since_refresh = reader.usize();
  const std::size_t refreshes = reader.usize();
  std::vector<double> mean = reader.doubles();
  std::vector<double> cross = reader.doubles();
  reader.end_section();
  if (mean.size() != dim() || cross.size() != cross_.size()) {
    throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                              "window moments state is inconsistent");
  }
  ring_ = std::move(ring);
  since_refresh_ = since_refresh;
  refreshes_ = refreshes;
  mean_ = std::move(mean);
  cross_ = std::move(cross);
  invalidate();
}

}  // namespace losstomo::stats
