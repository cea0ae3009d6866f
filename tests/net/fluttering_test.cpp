#include "net/fluttering.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "stats/rng.hpp"
#include "test_util.hpp"
#include "topology/generators.hpp"
#include "topology/overlay.hpp"
#include "topology/routing.hpp"

namespace losstomo::net {
namespace {

// ---- Reference: the map-based detection and the re-detecting sanitizer
// that the stamp scan and the incremental greedy loop replaced. ----------

bool reference_pair_flutters(const Path& a, const Path& b) {
  std::unordered_map<EdgeId, std::size_t> pos_b;
  pos_b.reserve(b.edges.size());
  for (std::size_t i = 0; i < b.edges.size(); ++i) pos_b[b.edges[i]] = i;
  std::vector<std::pair<std::size_t, std::size_t>> shared;  // (pos_a, pos_b)
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    const auto it = pos_b.find(a.edges[i]);
    if (it != pos_b.end()) shared.emplace_back(i, it->second);
  }
  if (shared.size() < 2) return false;
  for (std::size_t i = 1; i < shared.size(); ++i) {
    if (shared[i].first != shared[i - 1].first + 1) return true;
    if (shared[i].second != shared[i - 1].second + 1) return true;
  }
  return false;
}

std::vector<FlutteringViolation> reference_detect(
    const std::vector<Path>& paths) {
  std::map<EdgeId, std::vector<std::uint32_t>> edge_paths;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    for (const auto e : paths[i].edges) {
      edge_paths[e].push_back(static_cast<std::uint32_t>(i));
    }
  }
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> share_count;
  for (const auto& [edge, list] : edge_paths) {
    for (std::size_t x = 0; x < list.size(); ++x) {
      for (std::size_t y = x + 1; y < list.size(); ++y) {
        ++share_count[{list[x], list[y]}];
      }
    }
  }
  std::vector<FlutteringViolation> out;
  for (const auto& [pair, count] : share_count) {
    if (count < 2) continue;
    if (reference_pair_flutters(paths[pair.first], paths[pair.second])) {
      out.push_back({pair.first, pair.second});
    }
  }
  return out;
}

SanitizeResult reference_remove(std::vector<Path> paths) {
  SanitizeResult result;
  std::vector<std::size_t> original(paths.size());
  std::iota(original.begin(), original.end(), 0);
  while (true) {
    const auto violations = reference_detect(paths);
    if (violations.empty()) break;
    std::vector<std::size_t> involvement(paths.size(), 0);
    for (const auto& v : violations) {
      ++involvement[v.path_a];
      ++involvement[v.path_b];
    }
    const auto worst = static_cast<std::size_t>(
        std::max_element(involvement.begin(), involvement.end()) -
        involvement.begin());
    result.removed.push_back(original[worst]);
    paths.erase(paths.begin() + static_cast<std::ptrdiff_t>(worst));
    original.erase(original.begin() + static_cast<std::ptrdiff_t>(worst));
  }
  result.kept = std::move(original);
  result.paths = std::move(paths);
  return result;
}

// Checks element-for-element equality with the reference; returns the
// violation count.
std::size_t expect_matches_reference(const std::vector<Path>& paths) {
  const auto got = detect_fluttering(paths);
  const auto want = reference_detect(paths);
  EXPECT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < std::min(got.size(), want.size()); ++k) {
    EXPECT_EQ(got[k].path_a, want[k].path_a) << "violation " << k;
    EXPECT_EQ(got[k].path_b, want[k].path_b) << "violation " << k;
  }
  return want.size();
}

// `count` random simple paths over the complete directed graph on `nodes`
// nodes (edge u->v has id u * nodes + v), 2..max_hops hops each.
std::vector<Path> random_simple_paths(stats::Rng& rng, std::size_t count,
                                      std::size_t nodes,
                                      std::size_t max_hops) {
  std::vector<Path> paths(count);
  std::vector<NodeId> order(nodes);
  for (auto& p : paths) {
    std::iota(order.begin(), order.end(), 0);
    const std::size_t hops = 2 + rng.index(max_hops - 1);
    for (std::size_t k = 0; k <= hops; ++k) {  // partial Fisher-Yates
      std::swap(order[k], order[k + rng.index(nodes - k)]);
    }
    p.source = order[0];
    p.destination = order[hops];
    for (std::size_t k = 0; k < hops; ++k) {
      p.edges.push_back(static_cast<EdgeId>(order[k] * nodes + order[k + 1]));
    }
  }
  return paths;
}

// Two paths that meet (share e_m1), diverge, and meet again (share e_m2):
// the canonical T.2 violation from the paper's Fig. 4.
struct FlutterPair {
  Graph g;
  std::vector<Path> paths;
};

FlutterPair make_flutter_pair() {
  FlutterPair f;
  // Nodes: A=0, B=1, m1a=2, m1b=3, x=4, y=5, m2a=6, m2b=7, Da=8, Db=9.
  f.g.add_nodes(10);
  const auto a_in = f.g.add_edge(0, 2);
  const auto b_in = f.g.add_edge(1, 2);
  const auto shared1 = f.g.add_edge(2, 3);  // first shared link
  const auto via_x1 = f.g.add_edge(3, 4);
  const auto via_x2 = f.g.add_edge(4, 6);
  const auto via_y1 = f.g.add_edge(3, 5);
  const auto via_y2 = f.g.add_edge(5, 6);
  const auto shared2 = f.g.add_edge(6, 7);  // second shared link
  const auto da = f.g.add_edge(7, 8);
  const auto db = f.g.add_edge(7, 9);
  f.paths = {
      {.source = 0, .destination = 8,
       .edges = {a_in, shared1, via_x1, via_x2, shared2, da}},
      {.source = 1, .destination = 9,
       .edges = {b_in, shared1, via_y1, via_y2, shared2, db}},
  };
  return f;
}

TEST(Fluttering, DetectsMeetDivergeMeet) {
  const auto f = make_flutter_pair();
  const auto violations = detect_fluttering(f.paths);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].path_a, 0u);
  EXPECT_EQ(violations[0].path_b, 1u);
}

TEST(Fluttering, ContiguousSharedSegmentIsFine) {
  const auto net = testing::make_fig1_network();
  EXPECT_TRUE(detect_fluttering(net.paths).empty());
}

TEST(Fluttering, TwoBeaconNetworkIsFine) {
  const auto net = testing::make_two_beacon_network();
  EXPECT_TRUE(detect_fluttering(net.paths).empty());
}

TEST(Fluttering, SingleSharedLinkIsFine) {
  Graph g(5);
  const auto e1 = g.add_edge(0, 2);
  const auto e2 = g.add_edge(1, 2);
  const auto shared = g.add_edge(2, 3);
  const auto e3 = g.add_edge(3, 4);
  const std::vector<Path> paths{
      {.source = 0, .destination = 4, .edges = {e1, shared, e3}},
      {.source = 1, .destination = 3, .edges = {e2, shared}},
  };
  EXPECT_TRUE(detect_fluttering(paths).empty());
}

TEST(Fluttering, SanitizerRemovesOneOfThePair) {
  const auto f = make_flutter_pair();
  const auto result = remove_fluttering_paths(f.paths);
  EXPECT_EQ(result.paths.size(), 1u);
  EXPECT_EQ(result.removed.size(), 1u);
  EXPECT_EQ(result.kept.size(), 1u);
  EXPECT_TRUE(detect_fluttering(result.paths).empty());
}

TEST(Fluttering, SanitizerKeepsCleanSetIntact) {
  const auto net = testing::make_two_beacon_network();
  const auto result = remove_fluttering_paths(net.paths);
  EXPECT_EQ(result.paths.size(), net.paths.size());
  EXPECT_TRUE(result.removed.empty());
}

TEST(Fluttering, SanitizerPrefersHubPath) {
  // Three paths: one flutters against the other two; removing the hub
  // path alone must resolve everything.
  auto f = make_flutter_pair();
  // Clone path 1 with a different tail destination to make path 0 violate
  // against two paths.
  const auto dc = f.g.add_edge(7, f.g.add_nodes(1));
  auto third = f.paths[1];
  third.edges.back() = dc;
  third.destination = f.g.edge(dc).to;
  // Differentiate the head so it is a distinct path object sharing the
  // fluttering structure with path 0 only.
  f.paths.push_back(third);
  const auto result = remove_fluttering_paths(f.paths);
  EXPECT_TRUE(detect_fluttering(result.paths).empty());
  // Removing path 0 (involved in 2 violations) suffices.
  ASSERT_EQ(result.removed.size(), 1u);
  EXPECT_EQ(result.removed[0], 0u);
}

TEST(Fluttering, OriginalIndicesTracked) {
  const auto f = make_flutter_pair();
  const auto result = remove_fluttering_paths(f.paths);
  ASSERT_EQ(result.kept.size(), 1u);
  ASSERT_EQ(result.removed.size(), 1u);
  EXPECT_NE(result.kept[0], result.removed[0]);
  EXPECT_LT(result.kept[0], 2u);
}

TEST(Fluttering, RejectsRepeatedEdge) {
  const std::vector<Path> twice{{.edges = {1, 2, 1, 2}}};
  EXPECT_THROW(detect_fluttering(twice), std::invalid_argument);
  EXPECT_THROW(remove_fluttering_paths(twice), std::invalid_argument);
  const std::vector<Path> once{{.edges = {0, 3}}, {.edges = {5, 6, 5}}};
  EXPECT_THROW(detect_fluttering(once), std::invalid_argument);
}

TEST(FlutteringReference, RandomSimplePathsMatchElementForElement) {
  stats::Rng rng(1801);
  std::size_t total = 0;
  for (int trial = 0; trial < 300; ++trial) {
    total += expect_matches_reference(random_simple_paths(rng, 60, 12, 6));
  }
  EXPECT_GT(total, 500u);  // 1115 at this seed: the check sees real ones
}

TEST(FlutteringReference, UnsanitizedWaxmanMeshesMatch) {
  // Destination-based shortest-path routing leaves these meshes clean, so
  // this pins the clean verdict (no false positive on a routed mesh) and
  // the sanitizer's no-op; the random sets above carry the violations.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    stats::Rng rng(seed);
    const auto topo =
        topology::make_waxman({.nodes = 60, .links_per_node = 2}, rng);
    const auto hosts = topology::pick_low_degree_hosts(topo.graph, 14);
    const auto routed = topology::route_paths(topo.graph, hosts, hosts,
                                              {.sanitize_fluttering = false});
    EXPECT_EQ(expect_matches_reference(routed.paths), 0u) << "seed " << seed;
    const auto got = remove_fluttering_paths(routed.paths);
    const auto want = reference_remove(routed.paths);
    EXPECT_EQ(got.removed, want.removed) << "seed " << seed;
    EXPECT_EQ(got.kept, want.kept) << "seed " << seed;
  }
}

TEST(FlutteringReference, OverlayMatches) {
  // The 5112-path PlanetLab-like overlay the scenario benches monitor.
  stats::Rng rng(41);
  const auto topo = topology::make_planetlab_like(
      {.hosts = 72, .as_count = 10, .routers_per_as = 8}, rng);
  const auto routed = topology::route_paths(topo.graph, topo.hosts, topo.hosts,
                                            {.sanitize_fluttering = false});
  ASSERT_EQ(routed.paths.size(), 5112u);
  expect_matches_reference(routed.paths);
}

TEST(Fluttering, IncrementalSanitizerMatchesRedetectingLoop) {
  stats::Rng rng(1802);
  std::size_t multi_removal_sets = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const auto paths = random_simple_paths(rng, 40, 10, 5);
    if (reference_detect(paths).empty()) continue;
    const auto got = remove_fluttering_paths(paths);
    const auto want = reference_remove(paths);
    EXPECT_EQ(got.removed, want.removed) << "trial " << trial;
    EXPECT_EQ(got.kept, want.kept) << "trial " << trial;
    ASSERT_EQ(got.paths.size(), want.paths.size());
    for (std::size_t i = 0; i < got.paths.size(); ++i) {
      EXPECT_EQ(got.paths[i].edges, want.paths[i].edges);
    }
    EXPECT_TRUE(detect_fluttering(got.paths).empty());
    multi_removal_sets += want.removed.size() > 1;
  }
  EXPECT_GT(multi_removal_sets, 10u);
}

}  // namespace
}  // namespace losstomo::net
