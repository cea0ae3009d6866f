// Scenario trace record/replay: a run recorded through a churn timeline
// (leave/join/reroute/link-down/grow — everything that changes the known
// prefix or the feed) must replay to bit-identical inferences with the
// simulator bypassed, at 1, 2, and 8 threads, and a trace that does not
// match the scenario must be rejected with a typed error.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "io/binary_trace.hpp"
#include "io/checkpoint.hpp"
#include "linalg/matrix.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "test_util.hpp"

namespace losstomo::scenario {
namespace {

std::string temp_file(const std::string& name) {
  return losstomo::testing::scratch_file(name);
}

ScenarioSpec replay_spec() {
  ScenarioSpec spec;
  spec.name = "replay-drill";
  spec.topology.kind = TopologySpec::Kind::kMesh;
  spec.topology.nodes = 40;
  spec.topology.hosts = 24;
  spec.topology.seed = 3;
  spec.window = 20;
  spec.ticks = 50;
  spec.seed = 11;
  spec.p = 0.6;
  spec.probes = 600;
  spec.min_good_loss = 0.002;
  spec.reserve_paths = 3;
  spec.events = {
      {.tick = 25, .type = EventType::kPathLeave, .path = 3},
      {.tick = 28, .type = EventType::kPathJoin, .path = 3},
      {.tick = 35, .type = EventType::kRouteChange, .path = 5},
      {.tick = 40, .type = EventType::kLinkDown, .link = 2},
      {.tick = 44, .type = EventType::kGrow, .count = 2},
  };
  return spec;
}

std::vector<std::optional<linalg::Vector>> run_collecting(
    ScenarioRunner& runner) {
  std::vector<std::optional<linalg::Vector>> losses;
  runner.run([&](std::size_t, std::size_t,
                 const std::optional<core::LossInference>& inf) {
    losses.push_back(inf ? std::optional<linalg::Vector>(inf->loss)
                         : std::nullopt);
  });
  return losses;
}

TEST(ScenarioReplay, ReplayIsBitIdenticalAcrossThreadCounts) {
  const auto spec = replay_spec();
  const auto trace = temp_file("feed.bin");

  // Record once (single-threaded reference).
  core::MonitorOptions record_options;
  record_options.lia.variance.threads = 1;
  ScenarioRunner recorder(spec, record_options);
  recorder.record_trace(trace);
  EXPECT_FALSE(recorder.replaying());
  const auto reference = run_collecting(recorder);
  const auto* ref_eqs = recorder.monitor().streaming_equations();
  ASSERT_NE(ref_eqs, nullptr);

  {
    // The recorded trace is universe-width, log-flagged, one row per tick.
    const auto reader = io::BinaryTraceReader::open(trace);
    EXPECT_EQ(reader.paths(), recorder.universe().path_count());
    EXPECT_EQ(reader.snapshots(), spec.ticks);
    EXPECT_TRUE(reader.log_transformed());
  }

  for (const std::size_t threads : {1u, 2u, 8u}) {
    core::MonitorOptions options;
    options.lia.variance.threads = threads;
    ScenarioRunner replayer(spec, options);
    replayer.replay_trace(trace);
    EXPECT_TRUE(replayer.replaying());
    const auto replayed = run_collecting(replayer);
    const std::string label = "threads=" + std::to_string(threads);
    ASSERT_EQ(replayed.size(), reference.size()) << label;
    for (std::size_t t = 0; t < reference.size(); ++t) {
      ASSERT_EQ(replayed[t].has_value(), reference[t].has_value())
          << label << " tick " << t;
      if (!reference[t]) continue;
      ASSERT_EQ(replayed[t]->size(), reference[t]->size()) << label;
      for (std::size_t k = 0; k < reference[t]->size(); ++k) {
        EXPECT_EQ((*replayed[t])[k], (*reference[t])[k])
            << label << " tick " << t << " link " << k;
      }
    }
    const auto* eqs = replayer.monitor().streaming_equations();
    ASSERT_NE(eqs, nullptr) << label;
    EXPECT_EQ(eqs->refactorizations(), ref_eqs->refactorizations()) << label;
    EXPECT_EQ(eqs->factor_attempts(), ref_eqs->factor_attempts()) << label;
    // Events still applied on schedule during replay.
    EXPECT_EQ(replayer.events_applied(), recorder.events_applied()) << label;
  }
}

TEST(ScenarioReplay, RejectsMismatchedTraces) {
  const auto spec = replay_spec();

  // Wrong arity: a trace over a different universe.
  const auto narrow = temp_file("narrow.bin");
  {
    io::BinaryTraceWriter writer(narrow, 4, /*log_transformed=*/true);
    const std::vector<double> row{0.0, 0.0, 0.0, 0.0};
    for (std::size_t t = 0; t < spec.ticks; ++t) writer.append(row);
    writer.finish();
  }
  {
    ScenarioRunner runner(spec);
    try {
      runner.replay_trace(narrow);
      FAIL() << "wrong-arity trace accepted";
    } catch (const io::CheckpointError& e) {
      EXPECT_EQ(e.kind(), io::CheckpointErrorKind::kMismatch);
    }
  }

  ScenarioRunner probe(spec);
  const std::size_t universe = probe.universe().path_count();

  // Raw-phi trace (not a recorded feed).
  const auto raw = temp_file("raw.bin");
  {
    io::BinaryTraceWriter writer(raw, universe, /*log_transformed=*/false);
    const std::vector<double> row(universe, 0.5);
    for (std::size_t t = 0; t < spec.ticks; ++t) writer.append(row);
    writer.finish();
  }
  {
    ScenarioRunner runner(spec);
    try {
      runner.replay_trace(raw);
      FAIL() << "raw-phi trace accepted";
    } catch (const io::CheckpointError& e) {
      EXPECT_EQ(e.kind(), io::CheckpointErrorKind::kMismatch);
    }
  }

  // Too few snapshots for the timeline.
  const auto stub = temp_file("short.bin");
  {
    io::BinaryTraceWriter writer(stub, universe, /*log_transformed=*/true);
    const std::vector<double> row(universe, 0.0);
    for (std::size_t t = 0; t + 1 < spec.ticks; ++t) writer.append(row);
    writer.finish();
  }
  {
    ScenarioRunner runner(spec);
    try {
      runner.replay_trace(stub);
      FAIL() << "short trace accepted";
    } catch (const io::CheckpointError& e) {
      EXPECT_EQ(e.kind(), io::CheckpointErrorKind::kMismatch);
    }
  }

  // A corrupt file surfaces the binary-trace failure surface unchanged.
  {
    ScenarioRunner runner(spec);
    try {
      runner.replay_trace(temp_file("missing.bin"));
      FAIL() << "missing trace accepted";
    } catch (const io::CheckpointError& e) {
      EXPECT_EQ(e.kind(), io::CheckpointErrorKind::kIo);
    }
  }
}

TEST(ScenarioReplay, RecordAndReplayAreMutuallyExclusive) {
  const auto spec = replay_spec();
  const auto trace = temp_file("exclusive.bin");
  {
    ScenarioRunner runner(spec);
    runner.record_trace(trace + ".rec");
    EXPECT_THROW(runner.replay_trace(trace), std::logic_error);
  }
  {
    ScenarioRunner recorder(spec);
    recorder.record_trace(trace);
    recorder.run();
  }
  ScenarioRunner runner(spec);
  runner.replay_trace(trace);
  EXPECT_THROW(runner.record_trace(trace + ".rec"), std::logic_error);
}

}  // namespace
}  // namespace losstomo::scenario
