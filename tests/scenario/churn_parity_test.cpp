// The churn parity acceptance test: a scenario with at least one event of
// every type — path join, path leave, route change, link down (and up),
// congestion-regime shift, growth — driven through ScenarioRunner, where
// the streaming engine must stay within 1e-10 of a batch re-learn at every
// post-event tick, at 1, 2, and 8 threads, and take the batch engine's
// singular-window decisions (method, pinned links, jitter) on every tick.
//
// Instance notes: the mesh (40 nodes / 24 hosts / topology seed 3) keeps
// the drop-negative normal matrix positive definite through every event of
// this timeline (no jitter on any tick — asserted), and min_good_loss
// keeps every path strictly lossy so no pair covariance sits exactly on
// the drop-policy's zero boundary (a constant, lossless path has *exactly
// zero* sample covariance, where the two engines may legitimately round to
// different sides — see core/monitor.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "linalg/matrix.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace losstomo::scenario {
namespace {

ScenarioSpec parity_spec() {
  ScenarioSpec spec;
  spec.name = "churn-parity";
  spec.topology.kind = TopologySpec::Kind::kMesh;
  spec.topology.nodes = 40;
  spec.topology.hosts = 24;
  spec.topology.seed = 3;
  spec.window = 25;
  spec.ticks = 110;
  spec.seed = 11;
  spec.p = 0.6;
  spec.probes = 600;
  spec.min_good_loss = 0.002;
  spec.reserve_paths = 3;
  spec.events = {
      {.tick = 30, .type = EventType::kPathLeave, .path = 3},
      {.tick = 34, .type = EventType::kPathJoin, .path = 3},
      {.tick = 45, .type = EventType::kRouteChange, .path = 5},
      {.tick = 55, .type = EventType::kLinkDown, .link = 2},
      {.tick = 70, .type = EventType::kLinkUp, .link = 2},
      {.tick = 80, .type = EventType::kRegimeShift, .value = 0.35},
      {.tick = 90, .type = EventType::kGrow, .count = 3},
  };
  return spec;
}

struct Reference {
  std::vector<std::optional<core::LossInference>> inferences;
  std::vector<linalg::Vector> variances;
  // The batch estimate's singular-window decisions per tick.
  std::vector<std::string> methods;
  std::vector<std::size_t> links_pinned;
};

// The batch engine relearns from scratch every tick over the live-and-warm
// submatrix — the ground truth churned streaming must reproduce.  Batch
// results are bit-identical at any thread count, so one run suffices.
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

const Reference& shared_reference() {
  static const Reference ref = batch_reference(parity_spec());
  return ref;
}

void expect_parity(const ScenarioSpec& spec,
                   const core::MonitorOptions& options, const Reference& ref,
                   const std::string& label) {
  ScenarioRunner runner(spec, options);
  std::size_t compared = 0;
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
    EXPECT_LE(
        linalg::max_abs_diff(runner.monitor().variances().v,
                             ref.variances[tick]),
        1e-10)
        << label << " tick " << tick;
    // The instance is chosen so the system never needs regularization —
    // the precondition for tight cross-engine parity.
    EXPECT_DOUBLE_EQ(runner.monitor().variances().jitter_used, 0.0)
        << label << " tick " << tick;
    EXPECT_EQ(runner.monitor().variances().method,
              "streaming-" + ref.methods[tick])
        << label << " tick " << tick;
    EXPECT_EQ(runner.monitor().variances().links_pinned,
              ref.links_pinned[tick])
        << label << " tick " << tick;
  }
  EXPECT_EQ(compared, spec.ticks - spec.window) << label;

  // At most one factorization per relearn, and none needed a jitter.
  const auto* eqs = runner.monitor().streaming_equations();
  ASSERT_NE(eqs, nullptr) << label;
  EXPECT_LE(eqs->refactorizations(), compared) << label;
  EXPECT_EQ(eqs->factor_attempts(), eqs->refactorizations()) << label;
}

TEST(ChurnParity, AllEventTypesMatchBatchAtAnyThreadCount) {
  const auto spec = parity_spec();
  ASSERT_GE(spec.timeline().count(EventType::kPathJoin), 1u);
  ASSERT_GE(spec.timeline().count(EventType::kPathLeave), 1u);
  ASSERT_GE(spec.timeline().count(EventType::kRouteChange), 1u);
  ASSERT_GE(spec.timeline().count(EventType::kLinkDown), 1u);
  ASSERT_GE(spec.timeline().count(EventType::kRegimeShift), 1u);
  ASSERT_GE(spec.timeline().count(EventType::kGrow), 1u);
  const Reference& ref = shared_reference();

  for (const std::size_t threads : {1u, 2u, 8u}) {
    core::MonitorOptions options;
    options.lia.variance.threads = threads;
    expect_parity(spec, options, ref, "threads=" + std::to_string(threads));
  }
}

TEST(ChurnParity, PairIndexedAccumulatorMatchesBatch) {
  const auto spec = parity_spec();
  const Reference& ref = shared_reference();
  for (const std::size_t threads : {1u, 8u}) {
    core::MonitorOptions options;
    options.accumulator = core::CovarianceAccumulator::kSharingPairs;
    options.lia.variance.threads = threads;
    expect_parity(spec, options, ref,
                  "pairs/threads=" + std::to_string(threads));
  }
}

}  // namespace
}  // namespace losstomo::scenario
