// Crash drills for the sharing-pair accumulator: checkpoint/restore of a
// ScenarioRunner whose monitor runs core::PairMoments mid-scenario must
// resume bit-identically with the cached factor carried across (exactly
// one factorization per resumed run), and with the shared pair store —
// including the pairs appended by path and link growth, in their original
// order — rebuilt from the image rather than re-enumerated.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "io/checkpoint.hpp"
#include "linalg/matrix.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace losstomo::scenario {
namespace {

// The failover-drill mesh instance (see failover_test.cpp): every event
// type that touches monitor state happens before the kill window ends.
ScenarioSpec drill_spec() {
  ScenarioSpec spec;
  spec.name = "pair-failover-drill";
  spec.topology.kind = TopologySpec::Kind::kMesh;
  spec.topology.nodes = 40;
  spec.topology.hosts = 24;
  spec.topology.seed = 3;
  spec.window = 25;
  spec.ticks = 60;
  spec.seed = 11;
  spec.p = 0.6;
  spec.probes = 600;
  spec.min_good_loss = 0.002;
  spec.reserve_paths = 3;
  spec.events = {
      {.tick = 30, .type = EventType::kPathLeave, .path = 3},
      {.tick = 34, .type = EventType::kPathJoin, .path = 3},
      {.tick = 45, .type = EventType::kRouteChange, .path = 5},
      {.tick = 50, .type = EventType::kLinkDown, .link = 2},
      {.tick = 55, .type = EventType::kGrow, .count = 2},
  };
  return spec;
}

// Link-discovery drill over the constructive branching-tree family: the
// restore path must rebuild the pair store and accumulator mid-growth,
// after the link universe has already widened.
ScenarioSpec grow_links_drill_spec() {
  ScenarioSpec spec;
  spec.name = "pair-grow-links-drill";
  spec.topology.kind = TopologySpec::Kind::kBranchingTree;
  spec.topology.depth = 3;
  spec.topology.branching = 4;
  spec.topology.extra_leaves = 3;
  spec.topology.seed = 5;
  spec.window = 30;
  spec.ticks = 70;
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

core::MonitorOptions pair_options() {
  core::MonitorOptions options;
  options.accumulator = core::CovarianceAccumulator::kSharingPairs;
  options.lia.variance.threads = 1;
  return options;
}

struct UninterruptedRun {
  std::vector<std::optional<linalg::Vector>> losses;  // per tick
  std::vector<std::vector<std::uint8_t>> images;      // checkpoint per tick
  std::size_t refactorizations = 0;
};

UninterruptedRun uninterrupted(const ScenarioSpec& spec,
                               const core::MonitorOptions& options) {
  UninterruptedRun run;
  ScenarioRunner runner(spec, options);
  while (runner.ticks_run() < spec.ticks) {
    io::CheckpointWriter writer;
    runner.save_state(writer);
    run.images.push_back(writer.finish());
    const auto inference = runner.step();
    run.losses.push_back(inference
                             ? std::optional<linalg::Vector>(inference->loss)
                             : std::nullopt);
  }
  const auto* eqs = runner.monitor().streaming_equations();
  EXPECT_NE(eqs, nullptr);
  if (eqs) run.refactorizations = eqs->refactorizations();
  return run;
}

// Restores a fresh runner from images[kill_at], finishes the scenario, and
// checks inferences, the factor cache, and the rebuilt pair store.
void expect_pair_resume(const ScenarioSpec& spec,
                           const core::MonitorOptions& options,
                           const UninterruptedRun& ref, std::size_t kill_at,
                           const std::string& label) {
  ScenarioRunner runner(spec, options);
  auto reader = io::CheckpointReader::from_bytes(ref.images[kill_at]);
  runner.restore_state(reader);
  ASSERT_EQ(runner.ticks_run(), kill_at) << label;
  while (runner.ticks_run() < spec.ticks) {
    const std::size_t tick = runner.ticks_run();
    const auto inference = runner.step();
    ASSERT_EQ(inference.has_value(), ref.losses[tick].has_value())
        << label << " tick " << tick;
    if (!inference) continue;
    // Bit-identical, not merely close: restore must be exact resumption.
    EXPECT_EQ(linalg::max_abs_diff(inference->loss, *ref.losses[tick]), 0.0)
        << label << " tick " << tick;
    EXPECT_EQ(runner.monitor().variances().jitter_used, 0.0)
        << label << " tick " << tick;
  }
  const auto* eqs = runner.monitor().streaming_equations();
  ASSERT_NE(eqs, nullptr) << label;
  // The factor is carried across the restore: the resumed run
  // refactorizes exactly where the uninterrupted one did.
  EXPECT_EQ(eqs->refactorizations(), ref.refactorizations) << label;

  // The restored monitor runs the pair accumulator again, over a store
  // that covers every (grown) path.
  EXPECT_EQ(runner.monitor().accumulator(),
            core::CovarianceAccumulator::kSharingPairs)
      << label;
  const auto* store = eqs->pair_store();
  ASSERT_NE(store, nullptr) << label;
  EXPECT_EQ(store->path_count(), runner.monitor().routing().rows()) << label;
  EXPECT_GT(store->pair_count(), 0u) << label;
}

TEST(PairFailover, KillAtEveryTickResumesBitIdentically) {
  const auto spec = drill_spec();
  const auto options = pair_options();
  const auto ref = uninterrupted(spec, options);
  ASSERT_EQ(ref.images.size(), spec.ticks);
  // The run refactorizes on later ticks, so every kill point restores a
  // factor that the resumed run must carry and later replace.
  ASSERT_GT(ref.refactorizations, 1u);
  for (std::size_t kill_at = 1; kill_at < spec.ticks; ++kill_at) {
    expect_pair_resume(spec, options, ref, kill_at,
                       "kill_at=" + std::to_string(kill_at));
  }
}

TEST(PairFailover, GrowLinksDrillResumesAcrossUniverseGrowth) {
  const auto spec = grow_links_drill_spec();
  const auto options = pair_options();
  const auto ref = uninterrupted(spec, options);
  ASSERT_GT(ref.refactorizations, 1u);
  // Curated kill points: mid-warmup, right after the window fills,
  // straight after each grow_links burst, and late in the run.
  for (const std::size_t kill_at : {12u, 31u, 41u, 56u, 65u}) {
    expect_pair_resume(spec, options, ref, kill_at,
                       "kill_at=" + std::to_string(kill_at));
  }
}

}  // namespace
}  // namespace losstomo::scenario
