#include "core/sharing_pairs.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "net/routing_matrix.hpp"
#include "stats/rng.hpp"
#include "test_util.hpp"
#include "topology/generators.hpp"
#include "topology/overlay.hpp"
#include "topology/routing.hpp"

namespace losstomo::core {
namespace {

// Reference enumeration: the seed's all-pairs upper-triangle scan.
struct BrutePair {
  std::uint32_t i, j;
  std::vector<std::uint32_t> links;
};

std::vector<BrutePair> brute_force(const linalg::SparseBinaryMatrix& r) {
  std::vector<BrutePair> out;
  std::vector<std::uint32_t> shared;
  for (std::size_t i = 0; i < r.rows(); ++i) {
    for (std::size_t j = i; j < r.rows(); ++j) {
      linalg::intersect_sorted(r.row(i), r.row(j), shared);
      if (shared.empty()) continue;
      out.push_back({static_cast<std::uint32_t>(i),
                     static_cast<std::uint32_t>(j), shared});
    }
  }
  return out;
}

void expect_matches_brute_force(const linalg::SparseBinaryMatrix& r,
                                const SharingPairStore& store) {
  const auto expected = brute_force(r);
  ASSERT_EQ(store.pair_count(), expected.size());
  std::size_t p = 0;
  store.for_pairs(0, store.pair_count(),
                  [&](std::size_t idx, std::uint32_t i, std::uint32_t j,
                      std::span<const std::uint32_t> links) {
                    ASSERT_EQ(idx, p);
                    EXPECT_EQ(i, expected[p].i) << "pair " << p;
                    EXPECT_EQ(j, expected[p].j) << "pair " << p;
                    EXPECT_TRUE(std::equal(links.begin(), links.end(),
                                           expected[p].links.begin(),
                                           expected[p].links.end()))
                        << "pair " << p;
                    ++p;
                  });
  EXPECT_EQ(p, expected.size());
}

linalg::SparseBinaryMatrix tree_matrix() {
  stats::Rng rng(41);
  auto tree =
      topology::make_random_tree({.nodes = 80, .max_branching = 4}, rng);
  const auto paths = topology::tree_paths(tree);
  return net::ReducedRoutingMatrix(tree.graph, paths).matrix();
}

linalg::SparseBinaryMatrix mesh_matrix() {
  stats::Rng rng(42);
  auto topo = topology::make_waxman({.nodes = 120, .links_per_node = 2}, rng);
  const auto hosts = topology::pick_low_degree_hosts(topo.graph, 14);
  auto routed = topology::route_paths(topo.graph, hosts, hosts);
  return net::ReducedRoutingMatrix(topo.graph, routed.paths).matrix();
}

TEST(SharingPairStore, MatchesBruteForceOnDenseSharingTree) {
  const auto r = tree_matrix();
  expect_matches_brute_force(r, SharingPairStore::build(r));
}

TEST(SharingPairStore, MatchesBruteForceOnSparseSharingMesh) {
  const auto r = mesh_matrix();
  const auto store = SharingPairStore::build(r);
  expect_matches_brute_force(r, store);
  // The point of the store: a mesh shares far fewer pairs than np^2/2.
  EXPECT_LT(store.pair_count(), r.rows() * (r.rows() + 1) / 2);
}

TEST(SharingPairStore, BuildIsIdenticalAtAnyThreadCount) {
  const auto r = mesh_matrix();
  const auto reference = SharingPairStore::build(r, 1);
  for (const std::size_t threads : {2u, 8u}) {
    const auto store = SharingPairStore::build(r, threads);
    ASSERT_EQ(store.pair_count(), reference.pair_count());
    ASSERT_EQ(store.shared_link_entries(), reference.shared_link_entries());
    store.for_pairs(
        0, store.pair_count(),
        [&](std::size_t p, std::uint32_t i, std::uint32_t j,
            std::span<const std::uint32_t> links) {
          (void)i;
          EXPECT_EQ(j, reference.partner(p));
          const auto ref_links = reference.links(p);
          EXPECT_TRUE(std::equal(links.begin(), links.end(),
                                 ref_links.begin(), ref_links.end()));
        });
  }
}

TEST(SharingPairStore, ForPairsSubrangeSeesTheSamePairs) {
  const auto r = tree_matrix();
  const auto store = SharingPairStore::build(r);
  ASSERT_GT(store.pair_count(), 10u);
  const std::size_t begin = store.pair_count() / 3;
  const std::size_t end = 2 * store.pair_count() / 3;
  std::size_t seen = begin;
  store.for_pairs(begin, end,
                  [&](std::size_t p, std::uint32_t i, std::uint32_t j,
                      std::span<const std::uint32_t>) {
                    EXPECT_EQ(p, seen++);
                    EXPECT_GE(p, store.row_begin(i));
                    EXPECT_LT(p, store.row_end(i));
                    EXPECT_GE(j, i);
                  });
  EXPECT_EQ(seen, end);
}

TEST(SharingPairStore, PartnerFinderMatchesRowScan) {
  const auto r = mesh_matrix();
  const auto columns = r.column_lists();
  PartnerFinder finder(r, columns);
  std::vector<std::uint32_t> partners, shared;
  for (std::size_t i = 0; i < r.rows(); ++i) {
    finder.partners_of(i, partners);
    std::vector<std::uint32_t> expected;
    for (std::size_t j = i; j < r.rows(); ++j) {
      linalg::intersect_sorted(r.row(i), r.row(j), shared);
      if (!shared.empty()) expected.push_back(static_cast<std::uint32_t>(j));
    }
    ASSERT_EQ(partners, expected) << "path " << i;
  }
}

TEST(SharingPairStore, EmptyMatrix) {
  const linalg::SparseBinaryMatrix r(4, {});
  const auto store = SharingPairStore::build(r);
  EXPECT_EQ(store.pair_count(), 0u);
  EXPECT_EQ(store.shared_link_entries(), 0u);
}

// Incremental row appends (path churn): an add_row-grown store must carry
// exactly the pairs a from-scratch build over the grown matrix finds —
// with the new rows' pairs contiguous at the tail, partner on either side.
TEST(SharingPairStore, AddRowMatchesRebuiltStore) {
  const auto r_full = tree_matrix();
  const std::size_t np = r_full.rows();
  ASSERT_GE(np, 6u);
  // Build over a prefix, then append the remaining rows one at a time.
  const std::size_t prefix = np - 3;
  std::vector<std::vector<std::uint32_t>> rows;
  for (std::size_t i = 0; i < prefix; ++i) {
    const auto row = r_full.row(i);
    rows.emplace_back(row.begin(), row.end());
  }
  linalg::SparseBinaryMatrix r(r_full.cols(), rows);
  auto store = SharingPairStore::build(r);
  for (std::size_t i = prefix; i < np; ++i) {
    const auto row = r_full.row(i);
    rows.emplace_back(row.begin(), row.end());
    r = linalg::SparseBinaryMatrix(r_full.cols(), rows);
    const std::size_t first = store.add_row(r);
    EXPECT_EQ(first, store.row_begin(i));
    EXPECT_EQ(store.path_count(), i + 1);
  }
  // Same pair multiset as a fresh build (orientation-normalised).
  const auto rebuilt = SharingPairStore::build(r_full);
  const auto canonical = [](const SharingPairStore& s) {
    std::vector<std::tuple<std::uint32_t, std::uint32_t,
                           std::vector<std::uint32_t>>>
        pairs;
    s.for_pairs(0, s.pair_count(),
                [&](std::size_t, std::uint32_t i, std::uint32_t j,
                    std::span<const std::uint32_t> links) {
                  pairs.emplace_back(
                      std::min(i, j), std::max(i, j),
                      std::vector<std::uint32_t>(links.begin(), links.end()));
                });
    std::sort(pairs.begin(), pairs.end());
    return pairs;
  };
  EXPECT_EQ(canonical(store), canonical(rebuilt));
}

// Batched growth must be state-identical to the equivalent add_row loop —
// same pair indices, same partner orientation, same shared-link lists —
// including pairs between two rows of the same batch, and rows that bring
// fresh columns (a growing link universe).
TEST(SharingPairStore, AddRowsMatchesSequentialAddRow) {
  auto r_full = tree_matrix();
  const std::size_t np = r_full.rows();
  const std::size_t prefix = np - 5;
  std::vector<std::vector<std::uint32_t>> rows;
  for (std::size_t i = 0; i < prefix; ++i) {
    const auto row = r_full.row(i);
    rows.emplace_back(row.begin(), row.end());
  }
  const linalg::SparseBinaryMatrix r_prefix(r_full.cols(), rows);
  // A trailing row over two fresh columns shared with the last batch row.
  const auto fresh_a = static_cast<std::uint32_t>(r_full.cols());
  const auto fresh_b = fresh_a + 1;
  r_full.append_rows(2, {{0, fresh_a, fresh_b}, {fresh_a, fresh_b}});

  auto batched = SharingPairStore::build(r_prefix);
  EXPECT_EQ(batched.add_rows(r_full), batched.row_begin(prefix));

  auto sequential = SharingPairStore::build(r_prefix);
  for (std::size_t i = prefix; i < r_full.rows(); ++i) {
    std::vector<std::vector<std::uint32_t>> upto;
    for (std::size_t k = 0; k <= i; ++k) {
      const auto row = r_full.row(k);
      upto.emplace_back(row.begin(), row.end());
    }
    sequential.add_row(linalg::SparseBinaryMatrix(r_full.cols(), upto));
  }

  ASSERT_EQ(batched.pair_count(), sequential.pair_count());
  ASSERT_EQ(batched.path_count(), sequential.path_count());
  std::size_t p = 0;
  batched.for_pairs(
      0, batched.pair_count(),
      [&](std::size_t idx, std::uint32_t i, std::uint32_t j,
          std::span<const std::uint32_t> links) {
        EXPECT_EQ(j, sequential.partner(idx)) << "pair " << idx;
        std::size_t q = 0;
        sequential.for_pairs(idx, idx + 1,
                             [&](std::size_t, std::uint32_t si, std::uint32_t,
                                 std::span<const std::uint32_t> slinks) {
                               EXPECT_EQ(i, si) << "pair " << idx;
                               EXPECT_TRUE(std::equal(links.begin(),
                                                      links.end(),
                                                      slinks.begin(),
                                                      slinks.end()))
                                   << "pair " << idx;
                               ++q;
                             });
        EXPECT_EQ(q, 1u);
        ++p;
      });
  EXPECT_EQ(p, batched.pair_count());
}

TEST(SharingPairStore, AddRowsRejectsShrunkMatrix) {
  const linalg::SparseBinaryMatrix r(3, {{0, 1}, {1, 2}});
  auto store = SharingPairStore::build(r);
  EXPECT_THROW(store.add_rows(linalg::SparseBinaryMatrix(3, {{0}})),
               std::invalid_argument);
  // add_rows over an identical matrix appends nothing.
  EXPECT_EQ(store.add_rows(r), store.pair_count());
  EXPECT_EQ(store.path_count(), 2u);
}

TEST(SharingPairStore, GrowsFromEmptyStore) {
  // A store built over zero paths (or default-constructed) must accept its
  // first add_row — the CSR leading offsets are established on demand.
  auto store = SharingPairStore::build(linalg::SparseBinaryMatrix(3, {}));
  const linalg::SparseBinaryMatrix r1(3, {{0, 2}});
  EXPECT_EQ(store.add_row(r1), 0u);
  ASSERT_EQ(store.pair_count(), 1u);  // the diagonal pair
  EXPECT_EQ(store.partner(0), 0u);
  ASSERT_EQ(store.links(0).size(), 2u);
  EXPECT_EQ(store.links(0)[0], 0u);
  EXPECT_EQ(store.links(0)[1], 2u);

  SharingPairStore fresh;
  const linalg::SparseBinaryMatrix r0(2, {{1}});
  EXPECT_EQ(fresh.add_row(r0), 0u);
  EXPECT_EQ(fresh.pair_count(), 1u);
}

TEST(SharingPairStore, BytesScaleWithSharingStructure) {
  const auto r = tree_matrix();
  const auto store = SharingPairStore::build(r);
  EXPECT_GT(store.bytes(), 0u);
  // Lower bound: the flat arrays actually stored.
  EXPECT_GE(store.bytes(),
            store.pair_count() * sizeof(std::uint32_t) +
                store.shared_link_entries() * sizeof(std::uint32_t));
}

}  // namespace
}  // namespace losstomo::core
