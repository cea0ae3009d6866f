#include "core/pair_moments.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "io/checkpoint.hpp"
#include "io/checkpoint_tags.hpp"
#include "util/parallel.hpp"

namespace losstomo::core {

namespace {
constexpr std::size_t kPairGrain = 8192;
}  // namespace

PairMoments::PairMoments(std::shared_ptr<const SharingPairStore> store,
                         std::size_t dim,
                         stats::StreamingMomentsOptions options)
    : store_(std::move(store)),
      dim_(dim),
      options_(options),
      churn_(dim),
      ring_(dim, options.window),
      mean_(dim, 0.0),
      delta_(dim, 0.0),
      values_(store_->pair_count(), 0.0) {
  if (options_.window < 2) throw std::invalid_argument("window must be >= 2");
  if (store_->path_count() != dim_) {
    throw std::invalid_argument("store path count != dim");
  }
  if (options_.refresh_every == 0) {
    options_.refresh_every = 2 * options_.window;
  }
}

void PairMoments::rank1(double w) {
  util::parallel_for(
      values_.size(), kPairGrain,
      [&](std::size_t begin, std::size_t end) {
        store_->for_pairs(begin, end,
                          [&](std::size_t p, std::uint32_t i, std::uint32_t j,
                              std::span<const std::uint32_t>) {
                            values_[p] += w * delta_[i] * delta_[j];
                          });
      },
      options_.threads);
}

void PairMoments::add(std::span<const double> y) {
  const double n1 = static_cast<double>(count_ + 1);
  for (std::size_t i = 0; i < dim_; ++i) delta_[i] = y[i] - mean_[i];
  for (std::size_t i = 0; i < dim_; ++i) mean_[i] += delta_[i] / n1;
  if (count_ > 0) rank1(static_cast<double>(count_) / n1);
  ++count_;
}

void PairMoments::retire(std::span<const double> y) {
  const double n = static_cast<double>(count_);
  for (std::size_t i = 0; i < dim_; ++i) delta_[i] = y[i] - mean_[i];
  if (count_ == 1) {
    std::fill(mean_.begin(), mean_.end(), 0.0);
    std::fill(values_.begin(), values_.end(), 0.0);
    count_ = 0;
    return;
  }
  const double n1 = n - 1.0;
  for (std::size_t i = 0; i < dim_; ++i) mean_[i] -= delta_[i] / n1;
  rank1(-n / n1);
  --count_;
}

void PairMoments::push(std::span<const double> y) {
  if (y.size() != dim_) throw std::invalid_argument("snapshot size != dim");
  if (values_.size() != store_->pair_count()) {
    throw std::logic_error("pair store grew without PairMoments::add_path");
  }
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
  if (++since_refresh_ >= options_.refresh_every) refresh();
}

void PairMoments::refresh() {
  since_refresh_ = 0;
  ++refreshes_;
  if (count_ == 0) return;
  // Means in logical (oldest-to-newest) order, as in StreamingMoments.
  std::fill(mean_.begin(), mean_.end(), 0.0);
  for (std::size_t l = 0; l < count_; ++l) {
    const auto src = ring_.sample((head_ + l) % options_.window);
    for (std::size_t i = 0; i < dim_; ++i) mean_[i] += src[i];
  }
  const double inv = 1.0 / static_cast<double>(count_);
  for (auto& m : mean_) m *= inv;
  // Exact per-pair recompute, chunk-parallel over the pair list; each pair
  // accumulates its own sum sequentially in logical order, so the result is
  // independent of the thread count.
  util::parallel_for(
      values_.size(), std::max<std::size_t>(1, kPairGrain / options_.window),
      [&](std::size_t begin, std::size_t end) {
        store_->for_pairs(
            begin, end,
            [&](std::size_t p, std::uint32_t i, std::uint32_t j,
                std::span<const std::uint32_t>) {
              double sum = 0.0;
              for (std::size_t l = 0; l < count_; ++l) {
                const auto src = ring_.sample((head_ + l) % options_.window);
                sum += (src[i] - mean_[i]) * (src[j] - mean_[j]);
              }
              values_[p] = sum;
            });
      },
      options_.threads);
}

void PairMoments::save_state(io::CheckpointWriter& writer) const {
  writer.begin_section(io::tags::kPairMoments);
  writer.usize(dim_);
  writer.usize(options_.window);
  writer.usize(values_.size());
  churn_.save_state(writer);
  writer.doubles(ring_.flat());
  writer.usize(head_);
  writer.usize(count_);
  writer.usize(pushes_);
  writer.usize(since_refresh_);
  writer.usize(refreshes_);
  writer.doubles(mean_);
  writer.doubles(values_);
  writer.end_section();
}

void PairMoments::restore_state(io::CheckpointReader& reader) {
  reader.expect_section(io::tags::kPairMoments);
  const std::size_t dim = reader.usize();
  const std::size_t window = reader.usize();
  const std::size_t pairs = reader.usize();
  if (dim != dim_ || window != options_.window || pairs != values_.size()) {
    throw io::CheckpointError(
        io::CheckpointErrorKind::kMismatch,
        "pair moments shape " + std::to_string(dim) + "x" +
            std::to_string(window) + "/" + std::to_string(pairs) +
            " pairs, expected " + std::to_string(dim_) + "x" +
            std::to_string(options_.window) + "/" +
            std::to_string(values_.size()));
  }
  stats::PathChurnLedger churn = churn_;
  churn.restore_state(reader);
  std::vector<double> ring = reader.doubles();
  const std::size_t head = reader.usize();
  const std::size_t count = reader.usize();
  const std::size_t pushes = reader.usize();
  const std::size_t since_refresh = reader.usize();
  const std::size_t refreshes = reader.usize();
  std::vector<double> mean = reader.doubles();
  std::vector<double> values = reader.doubles();
  reader.end_section();
  if (ring.size() != dim_ * options_.window || head >= options_.window ||
      count > options_.window || mean.size() != dim_ ||
      values.size() != values_.size()) {
    throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                              "pair moments state is inconsistent");
  }
  churn_ = std::move(churn);
  std::copy(ring.begin(), ring.end(), ring_.sample(0).data());
  head_ = head;
  count_ = count;
  pushes_ = pushes;
  since_refresh_ = since_refresh;
  refreshes_ = refreshes;
  mean_ = std::move(mean);
  values_ = std::move(values);
}

double PairMoments::covariance(std::size_t i, std::size_t j) const {
  if (count_ < 2) throw std::logic_error("covariance needs >= 2 snapshots");
  const std::size_t p = store_->find_pair(i, j);
  if (p == SharingPairStore::kNoPair) {
    return 0.0;  // non-sharing pair: never consumed
  }
  return pair_covariance(p);
}

const linalg::Matrix& PairMoments::matrix() const {
  throw std::logic_error(
      "PairMoments maintains only sharing-pair covariances; use the dense "
      "StreamingMoments accumulator where the full S is required");
}

std::size_t PairMoments::samples(std::size_t i) const {
  return churn_.samples(i, pushes_, count_);
}

bool PairMoments::pair_ready(std::size_t i, std::size_t j) const {
  return churn_.pair_ready(i, j, pushes_, count_);
}

void PairMoments::activate_path(std::size_t i) {
  if (i >= dim_) throw std::invalid_argument("path out of range");
  churn_.activate(i, pushes_);
}

void PairMoments::retire_path(std::size_t i) {
  if (i >= dim_) throw std::invalid_argument("path out of range");
  churn_.retire(i);
}

std::size_t PairMoments::add_path() { return add_paths(1); }

std::size_t PairMoments::add_paths(std::size_t count) {
  if (count == 0) throw std::invalid_argument("add_paths needs count >= 1");
  const std::size_t index = dim_;
  const std::size_t next = dim_ + count;
  stats::SnapshotMatrix ring(next, options_.window);
  for (std::size_t l = 0; l < options_.window; ++l) {
    const auto src = ring_.sample(l);
    std::copy(src.begin(), src.end(), ring.sample(l).begin());
  }
  ring_ = std::move(ring);
  mean_.resize(next, 0.0);
  delta_.resize(next, 0.0);
  for (std::size_t k = 0; k < count; ++k) churn_.add_dim(pushes_);
  // New pairs appended by SharingPairStore::add_rows start at zero — the
  // exact centred cross-product of the new dimensions' all-zero history.
  values_.resize(store_->pair_count(), 0.0);
  dim_ = next;
  return index;
}

}  // namespace losstomo::core
