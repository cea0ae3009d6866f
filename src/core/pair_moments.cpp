#include "core/pair_moments.hpp"

#include <algorithm>
#include <stdexcept>

#include "io/checkpoint_tags.hpp"
#include "util/parallel.hpp"

namespace losstomo::core {

namespace {
constexpr std::size_t kPairGrain = 8192;
}  // namespace

PairMoments::PairMoments(std::shared_ptr<const SharingPairStore> store,
                         std::size_t dim,
                         stats::StreamingMomentsOptions options)
    : WindowMoments(dim, options), store_(std::move(store)) {
  if (store_->path_count() != dim) {
    throw std::invalid_argument("store path count != dim");
  }
  cross_.assign(store_->pair_count(), 0.0);
}

void PairMoments::push(std::span<const double> y) {
  if (cross_.size() != store_->pair_count()) {
    throw std::logic_error("pair store grew without PairMoments::add_paths");
  }
  WindowMoments::push(y);
}

void PairMoments::rank1(double w) {
  const double* delta = this->delta().data();
  double* values = cross_.data();
  util::parallel_for(
      cross_.size(), kPairGrain,
      [&](std::size_t begin, std::size_t end) {
        store_->for_pairs(begin, end,
                          [&](std::size_t p, std::uint32_t i, std::uint32_t j,
                              std::span<const std::uint32_t>) {
                            values[p] += w * delta[i] * delta[j];
                          });
      },
      threads());
}

void PairMoments::recompute() {
  // Exact per-pair recompute, chunk-parallel over the pair list; each pair
  // accumulates its own sum sequentially in logical order, so the result is
  // independent of the thread count.
  const std::size_t count = this->count();
  const double* mean = means().data();
  double* values = cross_.data();
  util::parallel_for(
      cross_.size(), std::max<std::size_t>(1, kPairGrain / window()),
      [&](std::size_t begin, std::size_t end) {
        store_->for_pairs(
            begin, end,
            [&](std::size_t p, std::uint32_t i, std::uint32_t j,
                std::span<const std::uint32_t>) {
              double sum = 0.0;
              for (std::size_t l = 0; l < count; ++l) {
                const auto src = ring().row(l);
                sum += (src[i] - mean[i]) * (src[j] - mean[j]);
              }
              values[p] = sum;
            });
      },
      threads());
}

void PairMoments::grow(std::size_t /*old_dim*/) {
  cross_.resize(store_->pair_count(), 0.0);
}

const char* PairMoments::checkpoint_tag() const {
  return io::tags::kPairMoments;
}

double PairMoments::covariance(std::size_t i, std::size_t j) const {
  if (count() < 2) throw std::logic_error("covariance needs >= 2 snapshots");
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

}  // namespace losstomo::core
