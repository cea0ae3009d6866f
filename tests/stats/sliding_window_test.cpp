// The shared sliding window: SnapshotRing keeps the m most recent rows in
// logical order through wrap-arounds, widens them with a zero tail, and
// round-trips through a checkpoint; WindowMoments gives both accumulator
// kernels the same means and cadence bit for bit.
#include "stats/sliding_window.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/pair_moments.hpp"
#include "core/sharing_pairs.hpp"
#include "io/checkpoint.hpp"
#include "stats/rng.hpp"
#include "stats/streaming.hpp"

namespace losstomo::stats {
namespace {

std::vector<double> row_values(std::size_t dim, std::size_t l) {
  std::vector<double> y(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    y[i] = static_cast<double>(10 * l + i) + 0.5;
  }
  return y;
}

std::vector<std::uint8_t> image_of(const SnapshotRing& ring) {
  io::CheckpointWriter writer;
  ring.save_state(writer);
  return writer.finish();
}

void restore(SnapshotRing& ring, std::vector<std::uint8_t> image) {
  auto reader = io::CheckpointReader::from_bytes(std::move(image));
  ring.restore_state(reader);
}

TEST(SnapshotRing, RowsReadOldestToNewestThroughWrapArounds) {
  constexpr std::size_t kDim = 3, kWindow = 4;
  SnapshotRing ring(kDim, kWindow);
  EXPECT_EQ(ring.count(), 0u);
  for (std::size_t l = 0; l < 2 * kWindow + 3; ++l) {
    ring.push(row_values(kDim, l));
    EXPECT_EQ(ring.pushes(), l + 1);
    EXPECT_EQ(ring.count(), std::min(l + 1, kWindow));
    EXPECT_EQ(ring.full(), l + 1 >= kWindow);
    const std::size_t oldest = l + 1 - ring.count();
    for (std::size_t k = 0; k < ring.count(); ++k) {
      const auto expect = row_values(kDim, oldest + k);
      const auto got = ring.row(k);
      EXPECT_TRUE(std::equal(got.begin(), got.end(), expect.begin()))
          << "push " << l << " row " << k;
    }
  }
}

TEST(SnapshotRing, AddDimsWidensEveryRowWithZeros) {
  SnapshotRing ring(2, 3);
  for (std::size_t l = 0; l < 4; ++l) ring.push(row_values(2, l));
  ring.add_dims(2);
  EXPECT_EQ(ring.dim(), 4u);
  EXPECT_EQ(ring.count(), 3u);
  EXPECT_EQ(ring.pushes(), 4u);
  for (std::size_t k = 0; k < 3; ++k) {
    const auto got = ring.row(k);
    const auto old = row_values(2, 1 + k);
    EXPECT_EQ(got[0], old[0]);
    EXPECT_EQ(got[1], old[1]);
    EXPECT_EQ(got[2], 0.0);
    EXPECT_EQ(got[3], 0.0);
  }
  EXPECT_THROW(ring.push(row_values(2, 9)), std::invalid_argument);
  ring.push(row_values(4, 9));
  const auto newest = ring.row(2);
  EXPECT_EQ(newest[3], row_values(4, 9)[3]);
}

TEST(SnapshotRing, CheckpointRoundTripsInLogicalOrder) {
  constexpr std::size_t kDim = 3, kWindow = 5;
  SnapshotRing original(kDim, kWindow);
  for (std::size_t l = 0; l < kWindow + 2; ++l) {
    original.push(row_values(kDim, l));
  }
  const auto image = image_of(original);
  SnapshotRing restored(kDim, kWindow);
  restored.push(row_values(kDim, 99));  // overwritten by the restore
  restore(restored, image);
  EXPECT_EQ(image_of(restored), image);
  EXPECT_EQ(restored.pushes(), original.pushes());
  for (std::size_t l = kWindow + 2; l < 3 * kWindow; ++l) {
    original.push(row_values(kDim, l));
    restored.push(row_values(kDim, l));
    for (std::size_t k = 0; k < kWindow; ++k) {
      const auto a = original.row(k);
      const auto b = restored.row(k);
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    }
  }

  // A ring of another shape rejects the image and keeps its own state.
  SnapshotRing other(kDim + 1, kWindow);
  other.push(row_values(kDim + 1, 7));
  try {
    restore(other, image);
    FAIL() << "accepted a ring of a different width";
  } catch (const io::CheckpointError& e) {
    EXPECT_EQ(e.kind(), io::CheckpointErrorKind::kMismatch);
  }
  EXPECT_EQ(other.count(), 1u);
  EXPECT_EQ(other.row(0)[0], row_values(kDim + 1, 7)[0]);
}

TEST(SnapshotRing, RejectsWindowBelowTwo) {
  EXPECT_THROW(SnapshotRing(3, 1), std::invalid_argument);
  EXPECT_THROW(SnapshotRing(3, 0), std::invalid_argument);
}

// Both kernels ride one core: the means and the refresh cadence come out
// bit-identical whatever the cross-product layout, also while path 2
// carries the 0.0 filler of a leave.
TEST(WindowMoments, DenseAndPairKernelsShareOneCore) {
  const linalg::SparseBinaryMatrix r(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  auto store = std::make_shared<core::SharingPairStore>(
      core::SharingPairStore::build(r));
  const StreamingMomentsOptions options{.window = 5, .refresh_every = 7};
  StreamingMoments dense(r.rows(), options);
  core::PairMoments pairs(store, r.rows(), options);
  std::vector<WindowMoments*> cores{&dense, &pairs};
  Rng rng(41);
  for (std::size_t l = 0; l < 23; ++l) {
    std::vector<double> y(r.rows());
    for (auto& v : y) v = rng.gaussian(0.0, 1.0);
    if (l >= 6 && l < 9) y[2] = 0.0;
    for (auto* c : cores) c->push(y);
    EXPECT_EQ(dense.means(), pairs.means()) << "push " << l;
    EXPECT_EQ(dense.refreshes(), pairs.refreshes());
  }
  EXPECT_GT(dense.refreshes(), 2u);
}

}  // namespace
}  // namespace losstomo::stats
