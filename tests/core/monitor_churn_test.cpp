// LiaMonitor path-churn semantics on small deterministic instances: warm-up
// gating, streaming/batch agreement through joins, leaves and growth,
// identity pinning of uncovered links, and configuration validation.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "core/monitor.hpp"
#include "linalg/matrix.hpp"
#include "net/routing_matrix.hpp"
#include "stats/rng.hpp"
#include "test_util.hpp"

namespace losstomo::core {
namespace {

MonitorOptions churn_options(MonitorEngine engine,
                             std::size_t window = 8) {
  MonitorOptions options;
  options.window = window;
  options.engine = engine;
  options.lia.variance.negatives = NegativeCovariancePolicy::kDrop;
  // Tiny instances: degrade through the deterministic rank-revealing
  // pinning on any singular window (a handful of equations over a handful
  // of links goes rank-deficient easily) — jittered solves would amplify
  // engine noise past any parity tolerance.
  options.lia.variance.rank_revealing_min_attempts = 1;
  return options;
}

// Tree-shaped universe: link 0 shared, links 1..3 per-path.  Leaving a
// path uncovers its private link.
linalg::SparseBinaryMatrix tiny_universe() {
  return linalg::SparseBinaryMatrix(4, {{0, 1}, {0, 2}, {0, 3}});
}

std::vector<double> synthetic_snapshot(const linalg::SparseBinaryMatrix& r,
                                       stats::Rng& rng) {
  linalg::Vector x(r.cols());
  for (std::size_t k = 0; k < x.size(); ++k) {
    x[k] = rng.gaussian(-0.05, 0.1 + 0.02 * static_cast<double>(k));
  }
  const auto y = r.multiply(x);
  return {y.begin(), y.end()};
}

TEST(MonitorChurn, LeaveUncoversAndPinsPrivateLink) {
  const auto r = tiny_universe();
  LiaMonitor monitor(r, churn_options(MonitorEngine::kStreaming));
  stats::Rng rng(3);
  for (std::size_t l = 0; l < 10; ++l) {
    (void)monitor.observe(synthetic_snapshot(r, rng));
  }
  ASSERT_TRUE(monitor.warmed_up());
  EXPECT_EQ(monitor.variances().links_pinned, 0u);

  monitor.set_path_active(2, false);
  EXPECT_FALSE(monitor.path_active(2));
  EXPECT_EQ(monitor.active_path_count(), 2u);
  auto y = synthetic_snapshot(r, rng);
  y[2] = 0.0;  // filler for the departed path
  const auto inference = monitor.observe(y);
  ASSERT_TRUE(inference.has_value());
  // Link 3 was covered only by path 2: identity-pinned, variance exactly 0,
  // and Phase 2 never blames it.
  EXPECT_EQ(monitor.variances().links_pinned, 1u);
  EXPECT_DOUBLE_EQ(monitor.variances().v[3], 0.0);
  const auto* eqs = monitor.streaming_equations();
  ASSERT_NE(eqs, nullptr);
  EXPECT_EQ(eqs->links_pinned(), 1u);
  // The inference covers the whole universe link space.
  EXPECT_EQ(inference->loss.size(), 4u);
}

TEST(MonitorChurn, BatchWithoutTwoFullPathsHasNoEstimate) {
  const auto r = tiny_universe();
  LiaMonitor monitor(r, churn_options(MonitorEngine::kBatch));
  stats::Rng rng(5);
  for (std::size_t l = 0; l < 10; ++l) {
    (void)monitor.observe(synthetic_snapshot(r, rng));
  }
  ASSERT_TRUE(monitor.warmed_up());
  ASSERT_NO_THROW((void)monitor.variances());

  // One fully-windowed path is left: nothing to estimate, so no diagnosis
  // and no estimate — not the one learned before the leave.
  monitor.set_path_active(1, false);
  monitor.set_path_active(2, false);
  auto y = synthetic_snapshot(r, rng);
  y[1] = 0.0;
  y[2] = 0.0;
  EXPECT_FALSE(monitor.observe(y).has_value());
  EXPECT_THROW((void)monitor.variances(), std::logic_error);
}

TEST(MonitorChurn, StreamingMatchesBatchThroughJoinLeaveAndGrowth) {
  const auto r = tiny_universe();
  for (const std::size_t threads : {1u, 2u}) {
    auto streaming_options = churn_options(MonitorEngine::kStreaming);
    streaming_options.lia.variance.threads = threads;
    auto batch_options = churn_options(MonitorEngine::kBatch);
    batch_options.lia.variance.threads = threads;
    LiaMonitor streaming(r, streaming_options);
    LiaMonitor batch(r, batch_options);

    stats::Rng rng(11);
    std::vector<std::vector<double>> feed;
    for (std::size_t l = 0; l < 40; ++l) {
      feed.push_back(synthetic_snapshot(r, rng));
    }
    // Fourth universe path appears at tick 14 (over existing links).
    const std::vector<std::uint32_t> new_row{0, 1, 3};
    const linalg::SparseBinaryMatrix grown(
        4, {{0, 1}, {0, 2}, {0, 3}, {0, 1, 3}});
    stats::Rng grow_rng(12);

    std::size_t compared = 0;
    for (std::size_t l = 0; l < feed.size(); ++l) {
      if (l == 10) {
        streaming.set_path_active(1, false);
        batch.set_path_active(1, false);
      }
      if (l == 13) {
        streaming.set_path_active(1, true);
        batch.set_path_active(1, true);
      }
      if (l == 14) {
        EXPECT_EQ(streaming.add_path(new_row), 3u);
        EXPECT_EQ(batch.add_path(new_row), 3u);
      }
      std::vector<double> y = feed[l];
      if (l >= 14) {
        y = synthetic_snapshot(grown, grow_rng);
        // Keep the original paths' values from the shared feed so both
        // monitors and both loops see one deterministic sequence.
        for (std::size_t i = 0; i < 3; ++i) y[i] = feed[l][i];
      }
      if (!streaming.path_active(1)) y[1] = 0.0;
      const auto from_streaming = streaming.observe(y);
      const auto from_batch = batch.observe(y);
      ASSERT_EQ(from_streaming.has_value(), from_batch.has_value()) << l;
      if (!from_streaming) continue;
      ++compared;
      EXPECT_LE(
          linalg::max_abs_diff(from_streaming->loss, from_batch->loss), 1e-10)
          << "threads=" << threads << " tick " << l;
      EXPECT_EQ(streaming.variances().equations_used,
                batch.variances().equations_used)
          << "tick " << l;
      // The same singular-window decisions: the streaming engine factors
      // the batch engine's G with the batch engine's ladder.
      EXPECT_EQ(streaming.variances().method,
                "streaming-" + batch.variances().method)
          << "threads=" << threads << " tick " << l;
      EXPECT_EQ(streaming.variances().links_pinned,
                batch.variances().links_pinned)
          << "threads=" << threads << " tick " << l;
      EXPECT_EQ(streaming.variances().jitter_used,
                batch.variances().jitter_used)
          << "threads=" << threads << " tick " << l;
    }
    EXPECT_GT(compared, 20u);
    const auto* eqs = streaming.streaming_equations();
    ASSERT_NE(eqs, nullptr);
    EXPECT_GT(eqs->refactorizations(), 1u) << "threads=" << threads;
  }
}

TEST(MonitorChurn, ValidatesConfiguration) {
  const auto r = tiny_universe();
  // Pair accumulator needs streaming + drop-negative.
  {
    MonitorOptions options = churn_options(MonitorEngine::kBatch);
    options.accumulator = CovarianceAccumulator::kSharingPairs;
    EXPECT_THROW(LiaMonitor(r, options), std::invalid_argument);
  }
  {
    MonitorOptions options = churn_options(MonitorEngine::kStreaming);
    options.accumulator = CovarianceAccumulator::kSharingPairs;
    options.lia.variance.negatives = NegativeCovariancePolicy::kKeep;
    EXPECT_THROW(LiaMonitor(r, options), std::invalid_argument);
  }
  // Streaming churn requires drop-negative.
  {
    MonitorOptions options = churn_options(MonitorEngine::kStreaming);
    options.lia.variance.negatives = NegativeCovariancePolicy::kKeep;
    LiaMonitor monitor(r, options);
    EXPECT_THROW(monitor.set_path_active(0, false), std::logic_error);
  }
  // Out-of-range paths and links are rejected.
  {
    LiaMonitor monitor(r, churn_options(MonitorEngine::kStreaming));
    EXPECT_THROW(monitor.set_path_active(7, false), std::invalid_argument);
    EXPECT_THROW(monitor.add_path({9}), std::invalid_argument);
  }
}

TEST(MonitorChurn, PairAccumulatorEngineMatchesDense) {
  const auto r = tiny_universe();
  LiaMonitor dense(r, churn_options(MonitorEngine::kStreaming));
  auto pair_options = churn_options(MonitorEngine::kStreaming);
  pair_options.accumulator = CovarianceAccumulator::kSharingPairs;
  LiaMonitor pairs(r, pair_options);
  EXPECT_EQ(pairs.accumulator(), CovarianceAccumulator::kSharingPairs);

  stats::Rng rng(21);
  std::size_t compared = 0;
  for (std::size_t l = 0; l < 30; ++l) {
    if (l == 12) {
      dense.set_path_active(0, false);
      pairs.set_path_active(0, false);
    }
    if (l == 15) {
      dense.set_path_active(0, true);
      pairs.set_path_active(0, true);
    }
    auto y = synthetic_snapshot(r, rng);
    if (!dense.path_active(0)) y[0] = 0.0;
    const auto from_dense = dense.observe(y);
    const auto from_pairs = pairs.observe(y);
    ASSERT_EQ(from_dense.has_value(), from_pairs.has_value()) << l;
    if (!from_dense) continue;
    ++compared;
    EXPECT_LE(linalg::max_abs_diff(from_dense->loss, from_pairs->loss), 1e-10)
        << "tick " << l;
  }
  EXPECT_GT(compared, 15u);
  ASSERT_NE(pairs.streaming_equations()->pair_store(), nullptr);
}

// The pair stack is built at the first snapshot, so churn before it only
// touches the activation ledger and is replayed when the stack is built.
// The dense stack is built at construction and takes the same calls
// directly: the two must keep agreeing.
TEST(MonitorChurn, PairStackReplaysChurnBeforeFirstSnapshot) {
  const auto r = testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(r.graph, r.paths);
  const auto& m = rrm.matrix();
  const auto options = churn_options(MonitorEngine::kStreaming);
  LiaMonitor dense(m, options);
  auto pair_options = options;
  pair_options.accumulator = CovarianceAccumulator::kSharingPairs;
  LiaMonitor pairs(m, pair_options);
  for (auto* monitor : {&dense, &pairs}) {
    monitor->set_path_active(0, false);
    monitor->set_path_active(2, false);
    monitor->set_path_active(2, true);
  }
  EXPECT_EQ(pairs.streaming_equations(), nullptr);

  stats::Rng rng(22);
  std::size_t compared = 0;
  for (std::size_t l = 0; l < 40; ++l) {
    if (l == 20) {
      dense.set_path_active(0, true);
      pairs.set_path_active(0, true);
    }
    auto y = synthetic_snapshot(m, rng);
    if (!dense.path_active(0)) y[0] = 0.0;
    const auto from_dense = dense.observe(y);
    const auto from_pairs = pairs.observe(y);
    ASSERT_NE(pairs.streaming_equations(), nullptr);
    ASSERT_EQ(from_dense.has_value(), from_pairs.has_value()) << l;
    if (!from_dense) continue;
    ++compared;
    EXPECT_LE(linalg::max_abs_diff(from_dense->loss, from_pairs->loss), 1e-10)
        << "tick " << l;
  }
  EXPECT_GT(compared, 25u);
  EXPECT_EQ(dense.variances().links_pinned, pairs.variances().links_pinned);
}

}  // namespace
}  // namespace losstomo::core
