// Mass-growth semantics of LiaMonitor::add_paths: a batched append must be
// STATE-identical (bit-parity, not just tolerance-parity) to the
// equivalent loop of single add_path calls on every engine, the link
// universe must grow mid-run through bordered factor growth without a
// refactorization, and the batch-engine growth path (windows recorded at
// the old width folded into a wider relearn) must stay in lockstep with
// streaming — the regression pin for the pre-warm-up fold/relearn
// interaction.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "linalg/matrix.hpp"
#include "stats/rng.hpp"

namespace losstomo::core {
namespace {

MonitorOptions growth_options(MonitorEngine engine,
                              CovarianceAccumulator accumulator =
                                  CovarianceAccumulator::kDense,
                              std::size_t window = 8) {
  MonitorOptions options;
  options.window = window;
  options.engine = engine;
  options.accumulator = accumulator;
  options.lia.variance.negatives = NegativeCovariancePolicy::kDrop;
  // Tiny instances: degrade through deterministic rank-revealing pinning
  // on singular windows (see monitor_churn_test for the rationale).
  options.lia.variance.rank_revealing_min_attempts = 1;
  return options;
}

// Star universe: link 0 shared, links 1..4 per-path.
linalg::SparseBinaryMatrix growth_universe() {
  return linalg::SparseBinaryMatrix(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
}

std::vector<double> synthetic_snapshot(const linalg::SparseBinaryMatrix& r,
                                       stats::Rng& rng) {
  linalg::Vector x(r.cols());
  for (std::size_t k = 0; k < x.size(); ++k) {
    x[k] = rng.gaussian(-0.05, 0.1 + 0.015 * static_cast<double>(k));
  }
  const auto y = r.multiply(x);
  return {y.begin(), y.end()};
}

// The grown universe every growth test converges to: three appended rows,
// two of them over fresh links 5 and 6.
linalg::SparseBinaryMatrix grown_universe() {
  return linalg::SparseBinaryMatrix(
      7, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 1, 4}, {0, 5}, {0, 5, 6}});
}

const std::vector<std::vector<std::uint32_t>>& grown_rows() {
  static const std::vector<std::vector<std::uint32_t>> rows{
      {0, 1, 4}, {0, 5}, {0, 5, 6}};
  return rows;
}

// Drives one monitor through 36 ticks with the growth burst at tick
// `grow_tick`, batched or row-by-row, and returns every inference; when
// `estimates` is given, it also collects the Phase-1 estimate of every
// diagnosing tick.
std::vector<std::optional<LossInference>> drive(
    LiaMonitor& monitor, bool batched, std::size_t grow_tick,
    std::vector<VarianceEstimate>* estimates = nullptr) {
  const auto grown = grown_universe();
  stats::Rng rng(17);
  std::vector<std::optional<LossInference>> out;
  for (std::size_t l = 0; l < 36; ++l) {
    if (l == grow_tick) {
      if (batched) {
        EXPECT_EQ(monitor.add_paths(grown_rows(), 2), 4u);
      } else {
        // Row-by-row: the fresh links ride the rows that introduce them.
        EXPECT_EQ(monitor.add_paths({grown_rows()[0]}, 0), 4u);
        EXPECT_EQ(monitor.add_paths({grown_rows()[1]}, 1), 5u);
        EXPECT_EQ(monitor.add_paths({grown_rows()[2]}, 1), 6u);
      }
    }
    // One shared deterministic feed: draw over the grown universe link
    // space always, project to the rows the monitor currently knows.
    const auto y_full = synthetic_snapshot(grown, rng);
    out.push_back(monitor.observe(
        std::vector<double>(y_full.begin(),
                            y_full.begin() + monitor.routing().rows())));
    if (estimates != nullptr && out.back()) {
      estimates->push_back(monitor.variances());
    }
  }
  return out;
}

void expect_identical(
    const std::vector<std::optional<LossInference>>& a,
    const std::vector<std::optional<LossInference>>& b,
    const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  std::size_t compared = 0;
  for (std::size_t l = 0; l < a.size(); ++l) {
    ASSERT_EQ(a[l].has_value(), b[l].has_value()) << label << " tick " << l;
    if (!a[l]) continue;
    ++compared;
    EXPECT_EQ(linalg::max_abs_diff(a[l]->loss, b[l]->loss), 0.0)
        << label << " tick " << l;
  }
  EXPECT_GT(compared, 10u) << label;
}

TEST(MonitorGrowth, BatchedAddPathsIsBitIdenticalToRowByRow) {
  struct Config {
    const char* label;
    MonitorEngine engine;
    CovarianceAccumulator accumulator;
  };
  const Config configs[] = {
      {"streaming/dense", MonitorEngine::kStreaming,
       CovarianceAccumulator::kDense},
      {"streaming/pairs", MonitorEngine::kStreaming,
       CovarianceAccumulator::kSharingPairs},
      {"batch", MonitorEngine::kBatch, CovarianceAccumulator::kDense},
  };
  // Growth both after warm-up (tick 20) and before it (tick 3): the
  // pre-warm-up case folds window snapshots recorded at the old width
  // into the first wider relearn.
  for (const std::size_t grow_tick : {20u, 3u}) {
    for (const auto& config : configs) {
      LiaMonitor batched(growth_universe(),
                         growth_options(config.engine, config.accumulator));
      LiaMonitor row_by_row(growth_universe(),
                            growth_options(config.engine,
                                           config.accumulator));
      const auto a = drive(batched, true, grow_tick);
      const auto b = drive(row_by_row, false, grow_tick);
      expect_identical(a, b, std::string(config.label) + "/grow@" +
                                 std::to_string(grow_tick));
      if (config.engine == MonitorEngine::kStreaming) {
        const auto* ea = batched.streaming_equations();
        const auto* eb = row_by_row.streaming_equations();
        ASSERT_NE(ea, nullptr);
        ASSERT_NE(eb, nullptr);
        EXPECT_EQ(ea->links_grown(), 2u);
        EXPECT_EQ(eb->links_grown(), 2u);
        EXPECT_EQ(ea->refactorizations(), eb->refactorizations());
        EXPECT_EQ(ea->factor_attempts(), eb->factor_attempts());
      }
    }
  }
}

// The batch engine is the reference for the streaming growth machinery:
// bordered nc growth + warm-up gating must match a from-scratch relearn
// over the live-and-warm submatrix at every tick.  This is also the
// regression pin for the batch engine's own growth path — relearns read
// window snapshots recorded at the PRE-growth width (shorter vectors)
// while the routing matrix is already wider.
TEST(MonitorGrowth, StreamingMatchesBatchThroughLinkGrowth) {
  for (const std::size_t grow_tick : {20u, 3u}) {
    LiaMonitor streaming(growth_universe(),
                         growth_options(MonitorEngine::kStreaming));
    LiaMonitor batch(growth_universe(),
                     growth_options(MonitorEngine::kBatch));
    std::vector<VarianceEstimate> ea, eb;
    const auto a = drive(streaming, true, grow_tick, &ea);
    const auto b = drive(batch, true, grow_tick, &eb);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(ea.size(), eb.size());
    // The batch engine's singular-window decisions, tick for tick.
    for (std::size_t k = 0; k < ea.size(); ++k) {
      EXPECT_EQ(ea[k].method, "streaming-" + eb[k].method)
          << "grow@" << grow_tick << " diagnosis " << k;
      EXPECT_EQ(ea[k].links_pinned, eb[k].links_pinned)
          << "grow@" << grow_tick << " diagnosis " << k;
      EXPECT_EQ(ea[k].jitter_used, eb[k].jitter_used)
          << "grow@" << grow_tick << " diagnosis " << k;
    }
    std::size_t compared = 0;
    for (std::size_t l = 0; l < a.size(); ++l) {
      ASSERT_EQ(a[l].has_value(), b[l].has_value()) << "tick " << l;
      if (!a[l]) continue;
      ++compared;
      EXPECT_LE(linalg::max_abs_diff(a[l]->loss, b[l]->loss), 1e-10)
          << "grow@" << grow_tick << " tick " << l;
    }
    EXPECT_GT(compared, 10u);
    // The final estimate spans the grown 7-link universe.
    EXPECT_EQ(streaming.variances().v.size(), 7u);
    const auto* eqs = streaming.streaming_equations();
    ASSERT_NE(eqs, nullptr);
    // At most one factorization per relearn.
    EXPECT_LE(eqs->refactorizations(), compared) << "grow@" << grow_tick;
    EXPECT_EQ(eqs->links_grown(), 2u);
  }
}

TEST(MonitorGrowth, ErrorPaths) {
  LiaMonitor monitor(growth_universe(),
                     growth_options(MonitorEngine::kStreaming));
  // Empty batch.
  EXPECT_THROW(monitor.add_paths({}), std::invalid_argument);
  // Row referencing a column beyond cols() + new_links.
  EXPECT_THROW(monitor.add_paths({{0, 6}}, 1), std::invalid_argument);
  EXPECT_THROW(monitor.add_paths({{0, 5}}, 0), std::invalid_argument);
  // Failed appends leave the monitor unchanged (no half-grown state).
  EXPECT_EQ(monitor.routing().rows(), 4u);
  EXPECT_EQ(monitor.routing().cols(), 5u);
  // Streaming growth requires the drop-negative policy.
  MonitorOptions keep = growth_options(MonitorEngine::kStreaming);
  keep.lia.variance.negatives = NegativeCovariancePolicy::kKeep;
  LiaMonitor keep_all(growth_universe(), keep);
  EXPECT_THROW(keep_all.add_paths({{0, 1}}), std::logic_error);
}

}  // namespace
}  // namespace losstomo::core
