// Keep-all streaming monitor: the relearn reads the snapshot window with
// the batch closed form, so the streaming and batch engines agree bit for
// bit — variances and losses on every tick, at any thread count, across a
// mid-run checkpoint/restore — and the checkpoint holds the window plus the
// cached factor, never an np x np matrix.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/monitor.hpp"
#include "core/variance_estimator.hpp"
#include "io/checkpoint.hpp"
#include "stats/covariance_source.hpp"
#include "stats/streaming.hpp"
#include "test_util.hpp"
#include "topology/generators.hpp"
#include "topology/overlay.hpp"
#include "topology/routing.hpp"

namespace losstomo::core {
namespace {

struct Instance {
  linalg::SparseBinaryMatrix r;
  std::vector<linalg::Vector> stream;
};

std::vector<linalg::Vector> make_stream(const linalg::SparseBinaryMatrix& r,
                                        std::size_t ticks, std::uint64_t seed) {
  stats::Rng rng(seed);
  const auto v = losstomo::testing::random_variances(r.cols(), rng, 0.1);
  const linalg::Vector mu(r.cols(), -0.02);
  const auto y =
      losstomo::testing::synthetic_observations(r, mu, v, ticks, rng);
  std::vector<linalg::Vector> stream;
  for (std::size_t l = 0; l < ticks; ++l) {
    const auto row = y.sample(l);
    stream.emplace_back(row.begin(), row.end());
  }
  return stream;
}

Instance tree_instance(std::size_t ticks) {
  stats::Rng rng(2001);
  const auto tree =
      topology::make_random_tree({.nodes = 300, .max_branching = 6}, rng);
  const net::ReducedRoutingMatrix rrm(tree.graph, topology::tree_paths(tree));
  return {rrm.matrix(), make_stream(rrm.matrix(), ticks, 2002)};
}

// 46 hosts: 2070 paths, past kAuto's pairwise cap, so the library default
// resolves to keep-all.
Instance overlay_instance(std::size_t ticks) {
  stats::Rng rng(2003);
  const auto topo = topology::make_planetlab_like(
      {.hosts = 46, .as_count = 6, .routers_per_as = 5}, rng);
  const auto routed = topology::route_paths(topo.graph, topo.hosts, topo.hosts);
  const net::ReducedRoutingMatrix rrm(topo.graph, routed.paths);
  return {rrm.matrix(), make_stream(rrm.matrix(), ticks, 2004)};
}

std::vector<std::uint8_t> image_of(const LiaMonitor& monitor) {
  io::CheckpointWriter writer;
  monitor.save_state(writer);
  return writer.finish();
}

void restore(LiaMonitor& monitor, std::vector<std::uint8_t> image) {
  auto reader = io::CheckpointReader::from_bytes(std::move(image));
  monitor.restore_state(reader);
}

bool same_bits(const linalg::Vector& a, const linalg::Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Streaming and batch monitors over the same stream, both checkpointed at
// `cut` and resumed in fresh monitors: every diagnosis must match bit for
// bit.  Returns the streaming variances of every diagnosed tick, for the
// cross-thread comparison.
std::vector<linalg::Vector> expect_bit_parity(const Instance& inst,
                                              MonitorOptions options,
                                              std::size_t threads) {
  options.lia.variance.threads = threads;
  MonitorOptions batch_options = options;
  batch_options.engine = MonitorEngine::kBatch;
  options.engine = MonitorEngine::kStreaming;
  const std::size_t cut = options.window + 3;

  auto streaming = std::make_unique<LiaMonitor>(inst.r, options);
  auto batch = std::make_unique<LiaMonitor>(inst.r, batch_options);
  std::vector<linalg::Vector> variances;
  for (std::size_t l = 0; l < inst.stream.size(); ++l) {
    if (l == cut) {
      const auto streaming_image = image_of(*streaming);
      const auto batch_image = image_of(*batch);
      streaming = std::make_unique<LiaMonitor>(inst.r, options);
      batch = std::make_unique<LiaMonitor>(inst.r, batch_options);
      restore(*streaming, streaming_image);
      restore(*batch, batch_image);
    }
    const auto a = streaming->observe(inst.stream[l]);
    const auto b = batch->observe(inst.stream[l]);
    EXPECT_EQ(a.has_value(), b.has_value()) << "tick " << l;
    if (!a || !b) continue;
    EXPECT_TRUE(same_bits(streaming->variances().v, batch->variances().v))
        << "variances differ at tick " << l << ", threads " << threads;
    EXPECT_TRUE(same_bits(a->loss, b->loss))
        << "losses differ at tick " << l << ", threads " << threads;
    variances.push_back(streaming->variances().v);
  }
  EXPECT_EQ(variances.size(), inst.stream.size() - options.window);
  const auto* eqs = streaming->streaming_equations();
  EXPECT_NE(eqs, nullptr);
  if (eqs != nullptr) {
    EXPECT_FALSE(eqs->drop_negative());
    // One factorization before the cut, none after the restore.
    EXPECT_EQ(eqs->refactorizations(), 1u);
  }
  return variances;
}

void expect_parity_at_all_thread_counts(const Instance& inst,
                                        const MonitorOptions& options) {
  const auto reference = expect_bit_parity(inst, options, 1);
  for (const std::size_t threads : {2u, 8u}) {
    const auto other = expect_bit_parity(inst, options, threads);
    ASSERT_EQ(other.size(), reference.size());
    for (std::size_t t = 0; t < other.size(); ++t) {
      EXPECT_TRUE(same_bits(other[t], reference[t]))
          << "threads " << threads << " vs 1 at diagnosis " << t;
    }
  }
}

TEST(MonitorKeepAllParity, StreamingMatchesBatchBitForBitOnTree) {
  MonitorOptions options{.window = 12};
  options.lia.variance.negatives = NegativeCovariancePolicy::kKeep;
  expect_parity_at_all_thread_counts(tree_instance(3 * 12 + 2), options);
}

TEST(MonitorKeepAllParity, StreamingMatchesBatchBitForBitOnOverlay) {
  const auto inst = overlay_instance(2 * 8 + 3);
  ASSERT_GE(inst.r.rows(), 2000u);
  // Library defaults apart from the window: kAuto resolves to keep-all.
  expect_parity_at_all_thread_counts(inst, MonitorOptions{.window = 8});
}

// perfbench's traced pass hands a StreamingMoments to refresh(); on the same
// window it must read the same h as the batch source and the batch build,
// also after a further push replaces the cached centred window.
TEST(MonitorKeepAllParity, RefreshFromStreamingMomentsMatchesBatchSource) {
  const auto inst = tree_instance(40);
  const std::size_t window = 12;
  VarianceOptions options;
  options.negatives = NegativeCovariancePolicy::kKeep;
  stats::StreamingMoments moments(inst.r.rows(), {.window = window});
  StreamingNormalEquations from_moments(inst.r, options);
  StreamingNormalEquations from_batch(inst.r, options);
  // From 29 pushes on, the ring has wrapped and its head is mid-buffer.
  for (std::size_t pushes = 1; pushes <= 31; ++pushes) {
    moments.push(inst.stream[pushes - 1]);
    if (pushes < 29) continue;
    stats::SnapshotMatrix y(inst.r.rows(), window);
    for (std::size_t l = 0; l < window; ++l) {
      const auto& src = inst.stream[pushes - window + l];
      std::copy(src.begin(), src.end(), y.sample(l).begin());
    }
    from_moments.refresh(moments);
    from_batch.refresh(stats::BatchCovarianceSource(y));
    EXPECT_TRUE(same_bits(from_moments.system().h, from_batch.system().h))
        << "after " << pushes << " pushes";
    EXPECT_TRUE(same_bits(build_normal_equations(inst.r, y, options).h,
                          from_batch.system().h));
    EXPECT_TRUE(same_bits(from_moments.solve().v, from_batch.solve().v));
  }
}

// A source that serves S but no samples (the shape of core::PairMoments'
// contract) cannot feed the keep-all closed form: rejected, not misread.
class MatrixOnlySource final : public stats::CovarianceSource {
 public:
  explicit MatrixOnlySource(std::size_t dim) : s_(dim, dim) {}
  [[nodiscard]] std::size_t dim() const override { return s_.rows(); }
  [[nodiscard]] std::size_t count() const override { return 8; }
  [[nodiscard]] double covariance(std::size_t i, std::size_t j) const override {
    return s_(i, j);
  }
  [[nodiscard]] const linalg::Matrix& matrix() const override { return s_; }
  [[nodiscard]] bool matrix_is_cheap() const override { return true; }

 private:
  linalg::Matrix s_;
};

TEST(MonitorKeepAll, RefreshRejectsASourceWithoutSamples) {
  const auto inst = tree_instance(2);
  VarianceOptions options;
  options.negatives = NegativeCovariancePolicy::kKeep;
  const MatrixOnlySource source(inst.r.rows());
  StreamingNormalEquations eqs(inst.r, options);
  EXPECT_THROW(eqs.refresh(source), std::invalid_argument);
  EXPECT_THROW((void)build_normal_equations(inst.r, source, options),
               std::invalid_argument);
}

// The keep-all image is the window plus the cached factor: O(np m + nc^2)
// bytes.  A dense accumulator image would carry np^2 doubles (34 MB here).
TEST(MonitorKeepAll, CheckpointScalesWithWindowNotPathPairs) {
  const std::size_t window = 8;
  const auto inst = overlay_instance(2 * window);
  LiaMonitor monitor(inst.r, {.window = window});
  for (const auto& y : inst.stream) (void)monitor.observe(y);
  ASSERT_NE(monitor.streaming_equations(), nullptr);
  ASSERT_FALSE(monitor.streaming_equations()->drop_negative());

  const std::size_t np = inst.r.rows();
  const std::size_t nc = inst.r.cols();
  // Slack: the routing rows (length prefix + u32 links), the activation
  // ledger, the estimate and h, and the section headers.
  const std::size_t slack = 8 * np + 4 * inst.r.nnz() + 16 * np +
                            8 * window + 32 * nc + 4096;
  const auto image = image_of(monitor);
  EXPECT_LT(image.size(), 8 * (np * window + nc * nc) + slack);

  // And it resumes: the restored monitor re-serializes to the same bytes.
  LiaMonitor restored(inst.r, {.window = window});
  restore(restored, image);
  EXPECT_EQ(image_of(restored), image);
}

}  // namespace
}  // namespace losstomo::core
