// Streaming drop-negative factor maintenance: the cached Cholesky factor
// is reused while G is exactly the factored G and refactorized whenever a
// pair flip changed it, so the streaming engine reproduces the batch
// drop-negative estimate and its singular-window decisions through
// sign-flip-heavy windows at any thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/monitor.hpp"
#include "core/variance_estimator.hpp"
#include "io/checkpoint.hpp"
#include "sim/probe_sim.hpp"
#include "stats/covariance_source.hpp"
#include "test_util.hpp"

namespace losstomo::core {
namespace {

// A covariance source whose matrix the test controls entry by entry —
// lets us script exact sign-flip sequences into refresh().
class ScriptedSource final : public stats::CovarianceSource {
 public:
  explicit ScriptedSource(std::size_t dim)
      : s_(dim, dim) {}

  void set(std::size_t i, std::size_t j, double cov) {
    s_(i, j) = cov;
    s_(j, i) = cov;
  }

  [[nodiscard]] std::size_t dim() const override { return s_.rows(); }
  [[nodiscard]] std::size_t count() const override { return 16; }
  [[nodiscard]] double covariance(std::size_t i, std::size_t j) const override {
    return s_(i, j);
  }
  [[nodiscard]] const linalg::Matrix& matrix() const override { return s_; }
  [[nodiscard]] bool matrix_is_cheap() const override { return true; }

 private:
  linalg::Matrix s_;
};

VarianceOptions drop_options() {
  VarianceOptions options;
  options.negatives = NegativeCovariancePolicy::kDrop;
  return options;
}

// Two paths over one shared link: three sharing pairs, all touching the
// same G entry.  Flipping them between kept and dropped walks the kept
// count through 3 -> 0 -> 3; when the last equation covering the link
// drops, the identity pin keeps G nonsingular.  Every flip refactorizes;
// a refresh that flips nothing reuses the factor.
TEST(StreamingDropNegative, UncoveredLinkIsIdentityPinned) {
  const linalg::SparseBinaryMatrix r(1, {{0}, {0}});
  StreamingNormalEquations eqs(r, drop_options());
  ScriptedSource source(2);

  // All three pair covariances positive: pairs (0,0), (0,1), (1,1) kept.
  source.set(0, 0, 0.5);
  source.set(0, 1, 0.25);
  source.set(1, 1, 0.75);
  eqs.refresh(source);
  EXPECT_EQ(eqs.system().used, 3u);
  EXPECT_DOUBLE_EQ(eqs.system().g(0, 0), 3.0);
  EXPECT_EQ(eqs.links_pinned(), 0u);
  (void)eqs.solve();  // first factorization
  EXPECT_EQ(eqs.refactorizations(), 1u);

  // New values, same signs: G is unchanged and the factor is reused.
  source.set(0, 1, 0.3);
  eqs.refresh(source);
  EXPECT_EQ(eqs.pending_flips(), 0u);
  const auto reused = eqs.solve();
  EXPECT_EQ(eqs.refactorizations(), 1u);
  EXPECT_NEAR(reused.v[0], 1.55 / 3.0, 1e-12);

  // Drop one pair: G changed, so the solve refactorizes.
  source.set(0, 1, -0.25);
  eqs.refresh(source);
  EXPECT_DOUBLE_EQ(eqs.system().g(0, 0), 2.0);
  EXPECT_EQ(eqs.pending_flips(), 1u);
  const auto after_drop = eqs.solve();
  EXPECT_EQ(eqs.refactorizations(), 2u);
  EXPECT_EQ(eqs.pending_flips(), 0u);
  // v = h / G(0,0) = (0.5 + 0.75) / 2.
  EXPECT_NEAR(after_drop.v[0], 1.25 / 2.0, 1e-12);

  // Drop the remaining pairs one at a time: the kept count walks
  // 2 -> 1 -> 0.  At the 1 -> 0 step the link loses its last equation and
  // is identity-pinned — G(0,0) lands at exactly 1 (unit border) and the
  // link's variance solves to exactly 0, with no jitter.
  source.set(1, 1, -0.75);
  eqs.refresh(source);
  EXPECT_DOUBLE_EQ(eqs.system().g(0, 0), 1.0);
  (void)eqs.solve();
  EXPECT_EQ(eqs.refactorizations(), 3u);

  source.set(0, 0, -0.5);
  eqs.refresh(source);
  EXPECT_DOUBLE_EQ(eqs.system().g(0, 0), 1.0);  // 0 kept + identity pin
  EXPECT_EQ(eqs.pending_flips(), 1u);
  const auto after_pin = eqs.solve();
  EXPECT_EQ(eqs.refactorizations(), 4u);
  EXPECT_EQ(eqs.factor_attempts(), 4u);  // no jitter rung anywhere
  EXPECT_EQ(eqs.links_pinned(), 1u);
  EXPECT_EQ(eqs.system().used, 0u);
  EXPECT_EQ(eqs.system().dropped, 3u);
  EXPECT_DOUBLE_EQ(after_pin.v[0], 0.0);
  EXPECT_EQ(after_pin.links_pinned, 1u);
  EXPECT_DOUBLE_EQ(after_pin.jitter_used, 0.0);

  // Bring the pairs back: the link unpins and the estimate returns to the
  // exact value.
  source.set(0, 0, 0.5);
  source.set(0, 1, 0.25);
  source.set(1, 1, 0.75);
  eqs.refresh(source);
  EXPECT_DOUBLE_EQ(eqs.system().g(0, 0), 3.0);
  EXPECT_EQ(eqs.links_pinned(), 0u);
  EXPECT_EQ(eqs.pending_flips(), 3u);
  const auto restored = eqs.solve();
  EXPECT_EQ(eqs.refactorizations(), 5u);
  EXPECT_NEAR(restored.v[0], 1.5 / 3.0, 1e-12);
}

// Equation drops that leave the live block itself rank-deficient (every
// diagonal still covered) must degrade through the pivoted rank-revealing
// fallback when configured to pin on any jitter: the deficient pivot's
// link is pinned to zero variance and the streaming solve matches the
// batch path exactly — instead of both returning jitter-amplified
// solutions.
TEST(StreamingDropNegative, RankRevealingFallbackPinsDeficientLinks) {
  // Paths {a}, {a,b}, {a,b}: dropping the three {a}-only pairs leaves
  // G = [[3,3],[3,3]] — singular with positive diagonals (links a and b
  // are still covered but have become indistinguishable).
  const linalg::SparseBinaryMatrix r(2, {{0}, {0, 1}, {0, 1}});
  VarianceOptions options = drop_options();
  options.rank_revealing_min_attempts = 1;  // pin on any jitter
  StreamingNormalEquations eqs(r, options);
  ScriptedSource source(3);
  source.set(0, 0, 0.5);
  source.set(0, 1, 0.25);
  source.set(0, 2, 0.25);
  source.set(1, 1, 0.5);
  source.set(1, 2, 0.25);
  source.set(2, 2, 0.5);
  eqs.refresh(source);
  (void)eqs.solve();
  EXPECT_EQ(eqs.refactorizations(), 1u);

  // Drop the {a}-only pairs one tick at a time; each drop refactorizes,
  // and the last one leaves G singular.
  source.set(0, 0, -0.5);
  eqs.refresh(source);
  (void)eqs.solve();
  source.set(0, 1, -0.25);
  eqs.refresh(source);
  (void)eqs.solve();
  EXPECT_EQ(eqs.refactorizations(), 3u);
  source.set(0, 2, -0.25);
  eqs.refresh(source);
  const auto streaming = eqs.solve();
  EXPECT_EQ(eqs.refactorizations(), 4u);
  EXPECT_EQ(streaming.method,
            "streaming-normal(drop-negative,rank-revealing)");
  EXPECT_EQ(streaming.links_pinned, 1u);
  EXPECT_DOUBLE_EQ(streaming.jitter_used, 0.0);
  // Pivoting keeps link a (first of the tied diagonals) and pins b:
  // 3 v_a = h_a = 0.5 + 0.25 + 0.5 = 1.25.
  EXPECT_NEAR(streaming.v[0], 1.25 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(streaming.v[1], 0.0);

  // The batch solve on the same covariances degrades identically.
  const auto batch = estimate_link_variances(r, source, options);
  EXPECT_EQ(batch.method, "normal(drop-negative,rank-revealing)");
  EXPECT_EQ(batch.links_pinned, 1u);
  ASSERT_EQ(batch.v.size(), streaming.v.size());
  for (std::size_t k = 0; k < batch.v.size(); ++k) {
    EXPECT_NEAR(batch.v[k], streaming.v[k], 1e-12) << "link " << k;
  }
}

// Sign-flip-heavy monitor parity: observations with near-zero means make
// pair covariances hover around zero, so nearly every tick flips some drop
// decision.  The streaming engine must stay within 1e-10 of the batch
// engine across >= 3 full window wrap-arounds at 1, 2, and 8 threads, and
// take its decisions (method, pinned links, jitter) on every tick.
TEST(StreamingDropNegative, SignFlipHeavyWindowsMatchBatchAtAnyThreadCount) {
  stats::Rng topo_rng(514);
  const auto tree =
      topology::make_random_tree({.nodes = 90, .max_branching = 4}, topo_rng);
  const net::ReducedRoutingMatrix rrm(tree.graph, topology::tree_paths(tree));
  const std::size_t nc = rrm.link_count();
  const std::size_t m = 40;
  const std::size_t ticks = m + 3 * m;  // >= 3 wrap-arounds after warm-up

  // Every link active: weakly shared pairs have true covariances at the
  // scale of the window's sampling noise, so dozens of drop decisions flip
  // as the window slides (~5 per tick in this configuration), while
  // strongly shared pairs stay decisively kept.  (Near-zero-variance
  // links would make the drop-negative G numerically singular on some
  // windows, where G^-1 amplifies mere summation-order noise in h past
  // any parity tolerance; conditioning is the binding constraint there.)
  stats::Rng rng(515);
  linalg::Vector v_true(nc);
  for (auto& v : v_true) v = rng.uniform(0.01, 0.05);
  const linalg::Vector mu(nc, -0.02);
  const auto y = losstomo::testing::synthetic_observations(rrm.matrix(), mu,
                                                           v_true, ticks, rng);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    MonitorOptions batch_options{.window = m, .engine = MonitorEngine::kBatch};
    batch_options.lia.variance.negatives = NegativeCovariancePolicy::kDrop;
    batch_options.lia.variance.threads = threads;
    MonitorOptions streaming_options = batch_options;
    streaming_options.engine = MonitorEngine::kStreaming;

    LiaMonitor batch(rrm.matrix(), batch_options);
    LiaMonitor streaming(rrm.matrix(), streaming_options);
    std::size_t compared = 0;
    for (std::size_t l = 0; l < ticks; ++l) {
      const auto from_batch = batch.observe(y.sample(l));
      const auto from_streaming = streaming.observe(y.sample(l));
      ASSERT_EQ(from_batch.has_value(), from_streaming.has_value());
      if (!from_batch) continue;
      ++compared;
      EXPECT_LE(linalg::max_abs_diff(from_batch->loss, from_streaming->loss),
                1e-10)
          << "threads=" << threads << " tick " << l;
      EXPECT_LE(
          linalg::max_abs_diff(batch.variances().v, streaming.variances().v),
          1e-10)
          << "threads=" << threads << " tick " << l;
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
    EXPECT_EQ(compared, ticks - m);

    const auto* eqs = streaming.streaming_equations();
    ASSERT_NE(eqs, nullptr);
    ASSERT_TRUE(eqs->drop_negative());
    // The scenario is flip-heavy: most relearns changed G and
    // refactorized, none more than once.
    EXPECT_GT(eqs->refactorizations(), compared / 2) << "threads=" << threads;
    EXPECT_LE(eqs->refactorizations(), compared) << "threads=" << threads;
    ASSERT_NE(eqs->pair_store(), nullptr);
    EXPECT_GT(eqs->pair_store()->pair_count(), 0u);
  }
}

// The pair store is built lazily: constructing the streaming system must
// not enumerate pairs; the first refresh must.
TEST(StreamingDropNegative, PairStoreIsBuiltLazily) {
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  StreamingNormalEquations eqs(rrm.matrix(), drop_options());
  EXPECT_EQ(eqs.pair_store(), nullptr);
  ScriptedSource source(rrm.path_count());
  for (std::size_t i = 0; i < rrm.path_count(); ++i) source.set(i, i, 0.1);
  eqs.refresh(source);
  ASSERT_NE(eqs.pair_store(), nullptr);
  EXPECT_GT(eqs.pair_store()->pair_count(), 0u);
  EXPECT_GT(eqs.pair_store()->bytes(), 0u);
}

// A drop-negative tree monitor whose G is left exactly singular by the
// drops: every refactorization's plain attempt fails and the first jitter
// rung succeeds, so factor_attempts() counts two per refactorization —
// the double factorization the counter exists to make visible.  The
// count is serialized state: identical at any thread count and across a
// checkpoint/restore.
TEST(StreamingDropNegative, FactorAttemptsCountTheJitterLadder) {
  stats::Rng topo_rng(77);
  const auto tree =
      topology::make_random_tree({.nodes = 300, .max_branching = 8}, topo_rng);
  const net::ReducedRoutingMatrix rrm(tree.graph, topology::tree_paths(tree));
  sim::ScenarioConfig config;
  config.p = 0.1;
  config.probes_per_snapshot = 800;
  sim::SnapshotSimulator simulator(tree.graph, rrm, config, 5);
  const std::size_t window = 30;
  const std::size_t ticks = window + 12;
  std::vector<linalg::Vector> ys;
  for (std::size_t t = 0; t < ticks; ++t) {
    ys.push_back(simulator.next().path_log_trans);
  }
  const std::size_t kill_at = window + 6;

  std::size_t reference_attempts = 0;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    MonitorOptions options{.window = window};
    options.lia.variance.negatives = NegativeCovariancePolicy::kDrop;
    options.lia.variance.threads = threads;
    LiaMonitor monitor(rrm.matrix(), options);
    std::vector<std::uint8_t> image;
    std::size_t diagnoses = 0;
    for (std::size_t t = 0; t < ticks; ++t) {
      if (monitor.observe(ys[t])) ++diagnoses;
      if (t + 1 == kill_at) {
        io::CheckpointWriter writer;
        monitor.save_state(writer);
        image = writer.finish();
      }
    }
    const auto* eqs = monitor.streaming_equations();
    ASSERT_NE(eqs, nullptr);
    EXPECT_GT(diagnoses, 10u);
    EXPECT_EQ(eqs->refactorizations(), diagnoses) << "threads=" << threads;
    EXPECT_EQ(eqs->factor_attempts(), 2 * eqs->refactorizations())
        << "threads=" << threads;
    if (threads == 1) reference_attempts = eqs->factor_attempts();
    EXPECT_EQ(eqs->factor_attempts(), reference_attempts)
        << "threads=" << threads;

    // Resume from the mid-run checkpoint in a fresh monitor.
    LiaMonitor resumed(rrm.matrix(), options);
    auto reader = io::CheckpointReader::from_bytes(std::move(image));
    resumed.restore_state(reader);
    for (std::size_t t = kill_at; t < ticks; ++t) (void)resumed.observe(ys[t]);
    ASSERT_NE(resumed.streaming_equations(), nullptr);
    EXPECT_EQ(resumed.streaming_equations()->refactorizations(),
              eqs->refactorizations())
        << "threads=" << threads;
    EXPECT_EQ(resumed.streaming_equations()->factor_attempts(),
              eqs->factor_attempts())
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace losstomo::core
