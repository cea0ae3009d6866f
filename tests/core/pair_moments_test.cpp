// PairMoments — the pair-indexed sparse covariance accumulator — must
// agree with the dense StreamingMoments on every sharing pair through
// pushes, window wrap-arounds, drift refreshes, churn, and growth, at any
// thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/pair_moments.hpp"
#include "core/sharing_pairs.hpp"
#include "stats/rng.hpp"
#include "stats/streaming.hpp"
#include "test_util.hpp"

namespace losstomo::core {
namespace {

linalg::SparseBinaryMatrix small_mesh_matrix() {
  stats::Rng rng(31);
  const auto mesh = losstomo::testing::make_random_mesh(30, 10, rng);
  const net::ReducedRoutingMatrix rrm(mesh.topo.graph, mesh.paths);
  return rrm.matrix();
}

TEST(PairMoments, MatchesDenseAccumulatorOnSharingPairs) {
  const auto r = small_mesh_matrix();
  const std::size_t np = r.rows();
  auto store = std::make_shared<SharingPairStore>(SharingPairStore::build(r));
  ASSERT_GT(store->pair_count(), np);  // off-diagonal pairs exist

  const stats::StreamingMomentsOptions options{.window = 9};
  for (const std::size_t threads : {1u, 2u, 8u}) {
    auto opts = options;
    opts.threads = threads;
    stats::StreamingMoments dense(np, opts);
    PairMoments sparse(store, np, opts);
    stats::Rng rng(17);
    std::vector<double> y(np);
    // Three wrap-arounds so every drift-refresh boundary is crossed.
    for (std::size_t l = 0; l < 3 * 2 * 9 + 5; ++l) {
      for (auto& v : y) v = rng.gaussian(-0.05, 0.2);
      dense.push(y);
      sparse.push(y);
      if (l < 1) continue;
      store->for_pairs(
          0, store->pair_count(),
          [&](std::size_t p, std::uint32_t i, std::uint32_t j,
              std::span<const std::uint32_t>) {
            EXPECT_NEAR(sparse.pair_covariance(p), dense.covariance(i, j),
                        1e-12)
                << "pair " << p << " push " << l << " threads " << threads;
          });
    }
    EXPECT_GT(sparse.refreshes(), 0u);
  }
}

TEST(PairMoments, SymmetricLookupAndNonSharingPairs) {
  const linalg::SparseBinaryMatrix r(2, {{0}, {0, 1}, {1}});
  auto store = std::make_shared<SharingPairStore>(SharingPairStore::build(r));
  PairMoments acc(store, 3, {.window = 4});
  acc.push(std::vector<double>{1.0, 2.0, 3.0});
  acc.push(std::vector<double>{2.0, 1.0, -1.0});
  // (0, 2) shares nothing: defined as 0.  (1, 2) shares link 1: symmetric.
  EXPECT_DOUBLE_EQ(acc.covariance(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(acc.covariance(1, 2), acc.covariance(2, 1));
  // Means (1.5, 1.5, 1.0): cov(1,2) = (2-1.5)(3-1) + (1-1.5)(-1-1) = 2.
  EXPECT_NEAR(acc.covariance(1, 2), 2.0, 1e-12);
  EXPECT_THROW((void)acc.matrix(), std::logic_error);
}

TEST(PairMoments, GrowthAlignsWithStoreAddRow) {
  // Universe: 3 paths now, a 4th appended later.
  const linalg::SparseBinaryMatrix r3(3, {{0, 1}, {1, 2}, {0, 2}});
  const linalg::SparseBinaryMatrix r4(3, {{0, 1}, {1, 2}, {0, 2}, {1}});
  auto store = std::make_shared<SharingPairStore>(SharingPairStore::build(r3));
  PairMoments sparse(store, 3, {.window = 5});
  stats::StreamingMoments dense(3, {.window = 5});
  stats::Rng rng(5);
  std::vector<double> y(3);
  for (std::size_t l = 0; l < 7; ++l) {
    for (auto& v : y) v = rng.gaussian(0.0, 1.0);
    dense.push(y);
    sparse.push(y);
  }
  // Growing the store without growing the accumulator is caught.
  store->add_row(r4);
  EXPECT_THROW(sparse.push(std::vector<double>(3, 0.0)), std::logic_error);
  EXPECT_EQ(sparse.add_paths(1), 3u);
  EXPECT_EQ(dense.add_paths(1), 3u);
  y.resize(4);
  for (std::size_t l = 0; l < 6; ++l) {
    for (auto& v : y) v = rng.gaussian(0.0, 1.0);
    dense.push(y);
    sparse.push(y);
  }
  store->for_pairs(0, store->pair_count(),
                   [&](std::size_t p, std::uint32_t i, std::uint32_t j,
                       std::span<const std::uint32_t>) {
                     EXPECT_NEAR(sparse.pair_covariance(p),
                                 dense.covariance(i, j), 1e-12);
                   });
}

}  // namespace
}  // namespace losstomo::core
