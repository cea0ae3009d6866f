// The mass-growth parity acceptance test: scenarios covering every growth
// shape — a reroute (single-row append), a mass `grow` burst (batched
// multi-row append), and a `grow_links` burst whose routes introduce fresh
// virtual links (bordered nc growth) — driven through ScenarioRunner,
// where the streaming engine must stay within 1e-10 of a batch re-learn at
// every tick, at 1, 2, and 8 threads, with exactly ONE factorization per
// run: growth is absorbed by batched pair registration, rank-1/pin border
// steps, and bordered identity growth of the cached factor, never a
// relearn.
//
// Instance notes: the mesh spec exercises reroute + mass grow (meshes have
// alternate routes); the tree spec exercises grow_links (every
// root-to-leaf path owns its leaf virtual link, so reserve rows guarantee
// genuinely fresh links).  min_good_loss keeps every path strictly lossy
// (see churn_parity_test for the boundary rationale).
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "linalg/matrix.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace losstomo::scenario {
namespace {

ScenarioSpec mass_grow_spec() {
  ScenarioSpec spec;
  spec.name = "mass-grow-parity";
  spec.topology.kind = TopologySpec::Kind::kMesh;
  spec.topology.nodes = 40;
  spec.topology.hosts = 24;
  spec.topology.seed = 3;
  spec.window = 20;
  spec.ticks = 80;
  spec.seed = 11;
  spec.p = 0.6;
  spec.probes = 600;
  spec.min_good_loss = 0.002;
  spec.reserve_paths = 8;
  spec.events = {
      {.tick = 30, .type = EventType::kRouteChange, .path = 5},
      {.tick = 45, .type = EventType::kGrow, .count = 8},
  };
  return spec;
}

// Instance selection: in link-discovery mode a fresh link's junction must
// already branch among the initial paths, or the pre-growth G is EXACTLY
// singular (two virtual links indistinguishable until the grown path
// arrives) and both engines live on the jitter/rank-revealing degradation
// path, where tight parity is ill-posed.  This wide tree (branching 6,
// topology seed 2) keeps G clean through both growth events — asserted via
// jitter_used == 0 below.
ScenarioSpec grow_links_spec() {
  ScenarioSpec spec;
  spec.name = "grow-links-parity";
  spec.topology.kind = TopologySpec::Kind::kTree;
  spec.topology.nodes = 60;
  spec.topology.branching = 6;
  spec.topology.seed = 2;
  spec.window = 25;
  spec.ticks = 90;
  spec.seed = 11;
  spec.p = 0.6;
  spec.probes = 800;
  spec.min_good_loss = 0.002;
  spec.reserve_paths = 2;
  spec.events = {
      {.tick = 35, .type = EventType::kGrowLinks, .count = 1},
      {.tick = 55, .type = EventType::kGrowLinks, .count = 1},
  };
  return spec;
}

// The constructive well-conditioned link-discovery family
// (topology::make_branching_tree): unlike the random tree above, which
// needs a hand-picked topology seed to keep every growth junction
// branching, the complete branching-ary core GUARANTEES it — every
// junction branches among the initial root-to-leaf paths, and every
// extra leaf (exactly the reserve pool, appended after the core leaves)
// attaches its fresh link at such a junction.  Any seed works.
ScenarioSpec branching_tree_spec() {
  ScenarioSpec spec;
  spec.name = "branching-tree-grow-links-parity";
  spec.topology.kind = TopologySpec::Kind::kBranchingTree;
  spec.topology.depth = 3;
  spec.topology.branching = 4;
  spec.topology.extra_leaves = 3;
  spec.topology.seed = 5;
  spec.window = 30;
  spec.ticks = 80;
  spec.seed = 11;
  spec.p = 0.6;
  spec.probes = 800;
  spec.min_good_loss = 0.002;
  spec.reserve_paths = 3;
  spec.events = {
      {.tick = 40, .type = EventType::kGrowLinks, .count = 2},
      {.tick = 55, .type = EventType::kGrowLinks, .count = 1},
  };
  return spec;
}

core::MonitorOptions growth_monitor_options(std::size_t threads = 0) {
  core::MonitorOptions options;
  options.lia.variance.threads = threads;
  return options;
}

struct Reference {
  std::vector<std::optional<core::LossInference>> inferences;
  std::vector<linalg::Vector> variances;
  // The batch estimate's singular-window decisions per tick.
  std::vector<std::string> methods;
  std::vector<std::size_t> links_pinned;
};

Reference batch_reference(const ScenarioSpec& spec) {
  core::MonitorOptions options;
  options.engine = core::MonitorEngine::kBatch;
  ScenarioRunner runner(spec, options);
  Reference ref;
  while (runner.ticks_run() < spec.ticks) {
    ref.inferences.push_back(runner.step());
    const bool has = ref.inferences.back().has_value();
    ref.variances.push_back(has ? runner.monitor().variances().v
                                : linalg::Vector());
    ref.methods.push_back(has ? runner.monitor().variances().method : "");
    ref.links_pinned.push_back(
        has ? runner.monitor().variances().links_pinned : 0);
  }
  return ref;
}

void expect_growth_parity(const ScenarioSpec& spec, const Reference& ref,
                          std::size_t expected_links_grown) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ScenarioRunner runner(spec, growth_monitor_options(threads));
    std::size_t compared = 0;
    const std::string label = spec.name + "/threads=" + std::to_string(threads);
    while (runner.ticks_run() < spec.ticks) {
      const std::size_t tick = runner.ticks_run();
      const auto inference = runner.step();
      ASSERT_EQ(inference.has_value(), ref.inferences[tick].has_value())
          << label << " tick " << tick;
      if (!inference) continue;
      ++compared;
      EXPECT_LE(
          linalg::max_abs_diff(inference->loss, ref.inferences[tick]->loss),
          1e-10)
          << label << " tick " << tick;
      EXPECT_LE(linalg::max_abs_diff(runner.monitor().variances().v,
                                     ref.variances[tick]),
                1e-10)
          << label << " tick " << tick;
      // The instances are chosen so the system never needs regularization
      // — the precondition for tight cross-engine parity.
      EXPECT_DOUBLE_EQ(runner.monitor().variances().jitter_used, 0.0)
          << label << " tick " << tick;
      // The batch engine's singular-window decisions, tick for tick.
      EXPECT_EQ(runner.monitor().variances().method,
                "streaming-" + ref.methods[tick])
          << label << " tick " << tick;
      EXPECT_EQ(runner.monitor().variances().links_pinned,
                ref.links_pinned[tick])
          << label << " tick " << tick;
    }
    EXPECT_EQ(compared, spec.ticks - spec.window) << label;
    const auto* eqs = runner.monitor().streaming_equations();
    ASSERT_NE(eqs, nullptr) << label;
    // At most one factorization per relearn, and none needed a jitter.
    EXPECT_LE(eqs->refactorizations(), compared) << label;
    EXPECT_EQ(eqs->factor_attempts(), eqs->refactorizations()) << label;
    EXPECT_EQ(eqs->links_grown(), expected_links_grown) << label;
  }
}

TEST(GrowthParity, MassGrowBurstMatchesBatchAtAnyThreadCount) {
  const auto spec = mass_grow_spec();
  const Reference ref = batch_reference(spec);
  // Fixed-universe growth: the link basis never changes.
  expect_growth_parity(spec, ref, 0);
}

TEST(GrowthParity, FreshLinksMidRunMatchBatchAtAnyThreadCount) {
  const auto spec = grow_links_spec();
  // The instance must genuinely grow the link universe mid-run.
  ScenarioRunner probe(spec, growth_monitor_options());
  const std::size_t initial_cols = probe.monitor().routing().cols();
  (void)probe.run();
  const std::size_t grown = probe.monitor().routing().cols() - initial_cols;
  ASSERT_GT(grown, 0u);

  const Reference ref = batch_reference(spec);
  expect_growth_parity(spec, ref, grown);
}

TEST(GrowthParity, ConstructiveTreeGrowsFreshLinksUnderTightParity) {
  const auto spec = branching_tree_spec();
  // Every reserve row is an extra leaf owning one fresh link.
  ScenarioRunner probe(spec, growth_monitor_options());
  const std::size_t initial_cols = probe.monitor().routing().cols();
  (void)probe.run();
  const std::size_t grown = probe.monitor().routing().cols() - initial_cols;
  ASSERT_EQ(grown, spec.topology.extra_leaves);

  const Reference ref = batch_reference(spec);
  expect_growth_parity(spec, ref, grown);
}

TEST(GrowthParity, PairAccumulatorMatchesBatchThroughGrowth) {
  for (const auto& spec :
       {mass_grow_spec(), grow_links_spec(), branching_tree_spec()}) {
    const Reference ref = batch_reference(spec);
    core::MonitorOptions options = growth_monitor_options();
    options.accumulator = core::CovarianceAccumulator::kSharingPairs;
    ScenarioRunner runner(spec, options);
    std::size_t compared = 0;
    while (runner.ticks_run() < spec.ticks) {
      const std::size_t tick = runner.ticks_run();
      const auto inference = runner.step();
      ASSERT_EQ(inference.has_value(), ref.inferences[tick].has_value())
          << spec.name << " tick " << tick;
      if (!inference) continue;
      ++compared;
      EXPECT_LE(
          linalg::max_abs_diff(inference->loss, ref.inferences[tick]->loss),
          1e-10)
          << spec.name << " tick " << tick;
    }
    EXPECT_EQ(compared, spec.ticks - spec.window) << spec.name;
    // The pair accumulator takes the dense run's factor decisions.
    ScenarioRunner dense(spec, growth_monitor_options());
    (void)dense.run();
    EXPECT_EQ(runner.monitor().streaming_equations()->refactorizations(),
              dense.monitor().streaming_equations()->refactorizations())
        << spec.name;
  }
}

}  // namespace
}  // namespace losstomo::scenario
