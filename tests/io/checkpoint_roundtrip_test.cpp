// Checkpoint round-trip property tests, one per serialized component:
// save -> restore into a freshly constructed instance -> the state must be
// EXACTLY the original's.  Two oracles are used throughout: (1) re-saving
// the restored instance must produce byte-identical images, and (2)
// continuing to feed both instances the same stream must produce
// bit-identical outputs — the property the crash drills rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "core/monitor.hpp"
#include "core/pair_moments.hpp"
#include "core/sharing_pairs.hpp"
#include "core/variance_estimator.hpp"
#include "io/checkpoint.hpp"
#include "io/checkpoint_tags.hpp"
#include "net/routing_matrix.hpp"
#include "obs/registry.hpp"
#include "sim/probe_sim.hpp"
#include "stats/moments.hpp"
#include "stats/rng.hpp"
#include "stats/sliding_window.hpp"
#include "stats/streaming.hpp"
#include "test_util.hpp"

namespace losstomo::io {
namespace {

// Image of one component's save_state, for byte-level state comparison.
template <typename T>
std::vector<std::uint8_t> image_of(const T& component) {
  CheckpointWriter writer;
  component.save_state(writer);
  return writer.finish();
}

template <typename T>
void restore_from_image(T& component, std::vector<std::uint8_t> image) {
  auto reader = CheckpointReader::from_bytes(std::move(image));
  component.restore_state(reader);
}

TEST(CheckpointRoundTrip, RngStreamContinuesBitIdentically) {
  stats::Rng original(12345);
  for (int i = 0; i < 7; ++i) (void)original.uniform();
  // An odd number of gaussians leaves the Box-Muller spare cached inside
  // the normal distribution — exactly the state a naive engine-only
  // serialization would lose.
  for (int i = 0; i < 3; ++i) (void)original.gaussian();

  const auto image = image_of(original);
  stats::Rng restored(999);  // deliberately different seed
  restore_from_image(restored, image);
  EXPECT_EQ(image_of(restored), image);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(original.gaussian(), restored.gaussian());
    EXPECT_EQ(original.uniform(), restored.uniform());
  }
}

TEST(CheckpointRoundTrip, RunningStatRoundTrips) {
  stats::RunningStat original;
  for (const double x : {0.25, -3.0, 7.5, 0.125, 2.0}) original.add(x);
  const auto image = image_of(original);
  stats::RunningStat restored;
  restore_from_image(restored, image);
  EXPECT_EQ(restored.count(), original.count());
  EXPECT_EQ(restored.mean(), original.mean());
  EXPECT_EQ(restored.variance(), original.variance());
  EXPECT_EQ(restored.min(), original.min());
  EXPECT_EQ(restored.max(), original.max());
  EXPECT_EQ(image_of(restored), image);
}

// Correlated observation stream over the two-beacon network (6 paths).
std::vector<linalg::Vector> make_stream(std::size_t ticks,
                                        std::uint64_t seed) {
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  stats::Rng rng(seed);
  const auto v =
      losstomo::testing::random_variances(rrm.link_count(), rng, 0.4);
  const linalg::Vector mu(rrm.link_count(), -0.03);
  const auto y = losstomo::testing::synthetic_observations(rrm.matrix(), mu,
                                                           v, ticks, rng);
  std::vector<linalg::Vector> stream;
  for (std::size_t l = 0; l < ticks; ++l) {
    const auto row = y.sample(l);
    stream.emplace_back(row.begin(), row.end());
  }
  return stream;
}

TEST(CheckpointRoundTrip, StreamingMomentsContinuesBitIdentically) {
  const std::size_t dim = 6;
  const std::size_t window = 10;
  const auto stream = make_stream(3 * window, 77);
  stats::StreamingMoments original(dim, {.window = window,
                                         .refresh_every = window + 3});
  // Stop mid-window, mid-refresh-cadence: the awkward phase.
  for (std::size_t l = 0; l < 2 * window + 3; ++l) original.push(stream[l]);

  const auto image = image_of(original);
  stats::StreamingMoments restored(dim, {.window = window,
                                         .refresh_every = window + 3});
  restore_from_image(restored, image);
  EXPECT_EQ(image_of(restored), image);
  for (std::size_t l = 2 * window + 3; l < stream.size(); ++l) {
    original.push(stream[l]);
    restored.push(stream[l]);
  }
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      EXPECT_EQ(original.covariance(i, j), restored.covariance(i, j))
          << i << "," << j;
    }
  }
}

TEST(CheckpointRoundTrip, StreamingMomentsRejectsDimensionMismatch) {
  stats::StreamingMoments original(6, {.window = 8});
  const auto image = image_of(original);
  stats::StreamingMoments other_dim(7, {.window = 8});
  try {
    restore_from_image(other_dim, image);
    FAIL() << "accepted a checkpoint of different dimension";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kMismatch);
  }
  stats::StreamingMoments other_window(6, {.window = 9});
  EXPECT_THROW(restore_from_image(other_window, image), CheckpointError);
}

TEST(CheckpointRoundTrip, SharingPairStoreAndPairMomentsRoundTrip) {
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  const std::size_t np = rrm.matrix().rows();
  const std::size_t window = 10;
  auto store = std::make_shared<core::SharingPairStore>(
      core::SharingPairStore::build(rrm.matrix()));
  core::PairMoments original(store, np, {.window = window});
  const auto stream = make_stream(3 * window, 88);
  for (std::size_t l = 0; l < 2 * window + 1; ++l) original.push(stream[l]);

  CheckpointWriter writer;
  store->save_state(writer);
  original.save_state(writer);
  auto image = writer.finish();

  auto reader = CheckpointReader::from_bytes(image);
  auto restored_store = std::make_shared<core::SharingPairStore>();
  restored_store->restore_state(reader);
  EXPECT_EQ(restored_store->path_count(), store->path_count());
  EXPECT_EQ(restored_store->pair_count(), store->pair_count());
  core::PairMoments restored(restored_store, np, {.window = window});
  restored.restore_state(reader);

  CheckpointWriter rewriter;
  restored_store->save_state(rewriter);
  restored.save_state(rewriter);
  EXPECT_EQ(rewriter.finish(), image);

  for (std::size_t l = 2 * window + 1; l < stream.size(); ++l) {
    original.push(stream[l]);
    restored.push(stream[l]);
  }
  store->for_pairs(
      0, store->pair_count(),
      [&](std::size_t, std::uint32_t i, std::uint32_t j,
          std::span<const std::uint32_t>) {
        EXPECT_EQ(original.covariance(i, j), restored.covariance(i, j));
      });
}

// One layout for both accumulators: the store's owner writes the store,
// then the accumulator, then the normal equations, which hold no store
// bytes of their own.
void normal_equations_roundtrip_case(core::CovarianceAccumulator kind) {
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  const std::size_t np = rrm.matrix().rows();
  core::VarianceOptions options;
  options.negatives = core::NegativeCovariancePolicy::kDrop;
  const stats::StreamingMomentsOptions window{.window = 10};
  const auto stream = make_stream(4 * window.window, 99);
  const auto make_source = [&](std::shared_ptr<core::SharingPairStore> store)
      -> std::unique_ptr<stats::WindowMoments> {
    if (kind == core::CovarianceAccumulator::kSharingPairs) {
      return std::make_unique<core::PairMoments>(std::move(store), np, window);
    }
    return std::make_unique<stats::StreamingMoments>(np, window);
  };

  auto store = std::make_shared<core::SharingPairStore>(
      core::SharingPairStore::build(rrm.matrix()));
  auto source = make_source(store);
  core::StreamingNormalEquations original(rrm.matrix(), options, store);
  const std::size_t save_at = 2 * window.window + 5;
  for (std::size_t l = 0; l < save_at; ++l) {
    source->push(stream[l]);
    if (l + 1 >= window.window) {
      original.refresh(*source);
      (void)original.solve();
    }
  }
  const auto counters_before = original.refactorizations();

  CheckpointWriter writer;
  store->save_state(writer);
  source->save_state(writer);
  original.save_state(writer);
  auto image = writer.finish();

  auto reader = CheckpointReader::from_bytes(image);
  auto restored_store = std::make_shared<core::SharingPairStore>();
  restored_store->restore_state(reader);
  auto restored_source = make_source(restored_store);
  restored_source->restore_state(reader);
  core::StreamingNormalEquations restored(rrm.matrix(), options,
                                          restored_store);
  restored.restore_state(reader);
  EXPECT_EQ(restored.refactorizations(), counters_before);
  EXPECT_EQ(restored.factor_attempts(), original.factor_attempts());
  EXPECT_EQ(restored.pair_store(), restored_store.get());

  CheckpointWriter rewriter;
  restored_store->save_state(rewriter);
  restored_source->save_state(rewriter);
  restored.save_state(rewriter);
  EXPECT_EQ(rewriter.finish(), image);

  // Continue both: refreshes and solves must stay bit-identical, and the
  // restored factor must refactorize exactly where the original does.
  for (std::size_t l = save_at; l < stream.size(); ++l) {
    source->push(stream[l]);
    restored_source->push(stream[l]);
    const auto a = original.refresh(*source);
    const auto b = restored.refresh(*restored_source);
    EXPECT_EQ(a.used, b.used);
    const auto va = original.solve();
    const auto vb = restored.solve();
    ASSERT_EQ(va.v.size(), vb.v.size());
    for (std::size_t k = 0; k < va.v.size(); ++k) {
      EXPECT_EQ(va.v[k], vb.v[k]) << "link " << k << " tick " << l;
    }
  }
  EXPECT_EQ(restored.refactorizations(), original.refactorizations());
  EXPECT_EQ(restored.factor_attempts(), original.factor_attempts());
}

TEST(CheckpointRoundTrip, StreamingNormalEquationsKeepFactorAndCounters) {
  normal_equations_roundtrip_case(core::CovarianceAccumulator::kDense);
  normal_equations_roundtrip_case(core::CovarianceAccumulator::kSharingPairs);
}

TEST(CheckpointRoundTrip, SnapshotSimulatorContinuesBitIdentically) {
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  sim::ScenarioConfig config;
  config.probes_per_snapshot = 200;
  config.p = 0.3;
  sim::SnapshotSimulator original(net.graph, rrm, config, 4242);
  for (int i = 0; i < 5; ++i) (void)original.next();
  original.force_link_loss(0, 0.4);  // forced state must survive too
  (void)original.next();

  const auto image = image_of(original);
  sim::SnapshotSimulator restored(net.graph, rrm, config, 4242);
  restore_from_image(restored, image);
  EXPECT_EQ(image_of(restored), image);
  for (int i = 0; i < 8; ++i) {
    const auto a = original.next();
    const auto b = restored.next();
    ASSERT_EQ(a.path_log_trans.size(), b.path_log_trans.size());
    for (std::size_t p = 0; p < a.path_log_trans.size(); ++p) {
      EXPECT_EQ(a.path_log_trans[p], b.path_log_trans[p]);
    }
    for (std::size_t k = 0; k < a.link_true_loss.size(); ++k) {
      EXPECT_EQ(a.link_true_loss[k], b.link_true_loss[k]);
    }
  }
}

core::MonitorOptions monitor_options(core::CovarianceAccumulator acc,
                                     core::MonitorEngine engine) {
  core::MonitorOptions options;
  options.window = 10;
  options.engine = engine;
  options.accumulator = acc;
  options.lia.variance.negatives = core::NegativeCovariancePolicy::kDrop;
  return options;
}

// What the original monitor does right before its checkpoint.
enum class BeforeSave {
  kObserve,  // only observe
  kGrow,     // append a path two ticks before the save, so the window
             // still holds snapshots recorded before the growth
  kLeave,    // retire path 1 right before the save, with no observe in
             // between: the image holds G with path 1's kept pairs
};

void monitor_roundtrip_case(core::CovarianceAccumulator acc,
                            core::MonitorEngine engine,
                            BeforeSave before = BeforeSave::kObserve) {
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  const auto options = monitor_options(acc, engine);
  const auto stream = make_stream(4 * options.window, 314);
  const std::size_t save_at = 2 * options.window + 4;
  // The appended path repeats path 0's route and measurement; a retired
  // path 1 reads the 0.0 filler from the save on.
  const auto row0 = rrm.matrix().row(0);
  const std::vector<std::uint32_t> grown_row(row0.begin(), row0.end());
  const auto snapshot = [&](const core::LiaMonitor& monitor, std::size_t l) {
    linalg::Vector y = stream[l];
    y.resize(monitor.routing().rows(), stream[l][0]);
    if (before == BeforeSave::kLeave && l >= save_at) y[1] = 0.0;
    return y;
  };

  core::LiaMonitor original(rrm.matrix(), options);
  for (std::size_t l = 0; l < save_at; ++l) {
    if (before == BeforeSave::kGrow && l + 2 == save_at) {
      (void)original.add_paths({grown_row});
    }
    (void)original.observe(snapshot(original, l));
  }
  if (before == BeforeSave::kLeave) original.set_path_active(1, false);
  const auto image = image_of(original);
  core::LiaMonitor restored(rrm.matrix(), options);
  restore_from_image(restored, image);
  EXPECT_EQ(image_of(restored), image);
  ASSERT_EQ(restored.routing().rows(), original.routing().rows());
  EXPECT_EQ(restored.path_active(1), original.path_active(1));

  std::size_t diagnosed = 0;
  for (std::size_t l = save_at; l < stream.size(); ++l) {
    const auto a = original.observe(snapshot(original, l));
    const auto b = restored.observe(snapshot(restored, l));
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) continue;
    ++diagnosed;
    ASSERT_EQ(a->loss.size(), b->loss.size());
    for (std::size_t k = 0; k < a->loss.size(); ++k) {
      EXPECT_EQ(a->loss[k], b->loss[k]) << "link " << k << " tick " << l;
    }
    EXPECT_EQ(std::memcmp(a->loss.data(), b->loss.data(),
                          a->loss.size() * sizeof(double)),
              0)
        << "tick " << l;
  }
  EXPECT_GT(diagnosed, options.window);
  const auto* ea = original.streaming_equations();
  const auto* eb = restored.streaming_equations();
  ASSERT_EQ(ea == nullptr, eb == nullptr);
  if (ea) {
    EXPECT_EQ(ea->refactorizations(), eb->refactorizations());
    EXPECT_EQ(ea->factor_attempts(), eb->factor_attempts());
    // Drop-negative, either accumulator: the equations run on the store
    // the restored stack owns, restored from the image.
    ASSERT_NE(ea->pair_store(), nullptr);
    ASSERT_NE(eb->pair_store(), nullptr);
    EXPECT_EQ(eb->pair_store()->pair_count(), ea->pair_store()->pair_count());
    EXPECT_EQ(eb->pair_store()->path_count(), original.routing().rows());
  }
}

TEST(CheckpointRoundTrip, MonitorStreamingDenseContinuesBitIdentically) {
  monitor_roundtrip_case(core::CovarianceAccumulator::kDense,
                         core::MonitorEngine::kStreaming);
}

TEST(CheckpointRoundTrip, MonitorSharingPairsContinuesBitIdentically) {
  monitor_roundtrip_case(core::CovarianceAccumulator::kSharingPairs,
                         core::MonitorEngine::kStreaming);
}

TEST(CheckpointRoundTrip, MonitorBatchEngineContinuesBitIdentically) {
  monitor_roundtrip_case(core::CovarianceAccumulator::kDense,
                         core::MonitorEngine::kBatch);
}

// Growth inside the window: every engine's image holds the grown width.
TEST(CheckpointRoundTrip, MonitorRestoresInsideTheWindowAfterGrowth) {
  monitor_roundtrip_case(core::CovarianceAccumulator::kDense,
                         core::MonitorEngine::kBatch, BeforeSave::kGrow);
  monitor_roundtrip_case(core::CovarianceAccumulator::kDense,
                         core::MonitorEngine::kStreaming, BeforeSave::kGrow);
  monitor_roundtrip_case(core::CovarianceAccumulator::kSharingPairs,
                         core::MonitorEngine::kStreaming, BeforeSave::kGrow);
}

// A leave reaches G at the next refresh, so an image taken between the
// leave and the next observe still holds the leaving path's kept pairs.
TEST(CheckpointRoundTrip, MonitorRestoresBetweenLeaveAndObserve) {
  monitor_roundtrip_case(core::CovarianceAccumulator::kDense,
                         core::MonitorEngine::kStreaming, BeforeSave::kLeave);
  monitor_roundtrip_case(core::CovarianceAccumulator::kSharingPairs,
                         core::MonitorEngine::kStreaming, BeforeSave::kLeave);
  monitor_roundtrip_case(core::CovarianceAccumulator::kDense,
                         core::MonitorEngine::kBatch, BeforeSave::kLeave);
}

TEST(CheckpointRoundTrip, MonitorRejectsConfigMismatchIntact) {
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  const auto dense = monitor_options(core::CovarianceAccumulator::kDense,
                                     core::MonitorEngine::kStreaming);
  const auto pairs = monitor_options(core::CovarianceAccumulator::kSharingPairs,
                                     core::MonitorEngine::kStreaming);
  auto longer_window = dense;
  longer_window.window = dense.window + 1;
  const auto stream = make_stream(2 * dense.window, 555);

  // (image's configuration, restore target's configuration): a different
  // window, and a pair-accumulator image offered to a dense monitor.
  const std::pair<core::MonitorOptions, core::MonitorOptions> cases[] = {
      {dense, longer_window},
      {pairs, dense},
  };
  for (const auto& [saved, other] : cases) {
    core::LiaMonitor original(rrm.matrix(), saved);
    for (const auto& y : stream) (void)original.observe(y);
    const auto image = image_of(original);

    core::LiaMonitor target(rrm.matrix(), other);
    try {
      restore_from_image(target, image);
      FAIL() << "accepted a checkpoint from a different configuration";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.kind(), CheckpointErrorKind::kMismatch);
    }
    // The failed restore must leave the target fully usable (no partial
    // state): it still warms up and diagnoses on its own configuration.
    for (const auto& y : stream) (void)target.observe(y);
    EXPECT_TRUE(target.warmed_up());
  }
}

// A batch-engine monitor image written field by field in the layout of
// LiaMonitor::save_state, so it can hold what no monitor writes: path 1
// activated at `activated_at`, and a window of `pushes` pushes.
std::vector<std::uint8_t> batch_monitor_image(
    const linalg::SparseBinaryMatrix& r, const core::MonitorOptions& options,
    std::size_t ticks, std::size_t activated_at, std::size_t pushes) {
  CheckpointWriter writer;
  writer.begin_section(tags::kMonitor);
  writer.usize(options.window);
  writer.usize(options.relearn_every);
  writer.u8(static_cast<std::uint8_t>(core::MonitorEngine::kBatch));
  writer.u8(static_cast<std::uint8_t>(options.accumulator));
  writer.boolean(true);  // drop-negative
  writer.usize(options.refresh_every);
  writer.usize(r.cols());
  writer.usize(r.rows());
  for (std::size_t i = 0; i < r.rows(); ++i) writer.u32s(r.row(i));
  writer.usize(ticks);
  writer.usize(0);  // ticks since the last relearn
  stats::PathChurnLedger ledger(r.rows());
  ledger.retire(1);
  ledger.activate(1, activated_at);
  ledger.save_state(writer);
  writer.boolean(false);  // no variance estimate
  stats::SnapshotRing window(r.rows(), options.window);
  for (std::size_t l = 0; l < pushes; ++l) {
    window.push(std::vector<double>(r.rows(), -0.01));
  }
  window.save_state(writer);
  writer.end_section();
  return writer.finish();
}

// The readiness rule computes pushes - activated_at, so an activation past
// the tick count, or a window whose push count is not the tick count,
// would report a path ready at once.  The CRC cannot catch an image
// written that way; the restore rejects it and leaves the monitor as it
// was.
TEST(CheckpointRoundTrip, MonitorRejectsActivationOrWindowPastItsTicks) {
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  const auto& r = rrm.matrix();
  const auto options = monitor_options(core::CovarianceAccumulator::kDense,
                                       core::MonitorEngine::kBatch);
  const std::size_t ticks = options.window + 2;
  {
    core::LiaMonitor consistent(r, options);
    restore_from_image(consistent, batch_monitor_image(r, options, ticks,
                                                       ticks - 1, ticks));
    EXPECT_EQ(consistent.ticks(), ticks);
    EXPECT_TRUE(consistent.path_active(1));
  }
  const std::pair<std::size_t, std::size_t> cases[] = {
      {ticks + 1, ticks},  // activation past the tick count
      {ticks - 1, ticks - 1},  // window one push short of the tick count
  };
  for (const auto& [activated_at, pushes] : cases) {
    core::LiaMonitor target(r, options);
    try {
      restore_from_image(target, batch_monitor_image(r, options, ticks,
                                                     activated_at, pushes));
      FAIL() << "accepted activation " << activated_at << ", pushes "
             << pushes << " at tick " << ticks;
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.kind(), CheckpointErrorKind::kCorrupt);
    }
    EXPECT_EQ(target.ticks(), 0u);
  }
}

// A streaming monitor builds its stack (store, accumulator, normal
// equations) at first use: constructed only to be restored into, it
// builds nothing, and the restore installs the loaded stack.
void expect_restore_installs_the_loaded_stack(
    core::CovarianceAccumulator accumulator, std::uint64_t seed) {
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  const auto options =
      monitor_options(accumulator, core::MonitorEngine::kStreaming);
  const auto stream = make_stream(2 * options.window, seed);
  core::LiaMonitor original(rrm.matrix(), options);
  for (const auto& y : stream) (void)original.observe(y);
  const auto image = image_of(original);

  core::LiaMonitor restored(rrm.matrix(), options);
  EXPECT_EQ(restored.streaming_equations(), nullptr);  // nothing built yet
  restore_from_image(restored, image);
  const auto* eqs = restored.streaming_equations();
  ASSERT_NE(eqs, nullptr);
  ASSERT_NE(eqs->pair_store(), nullptr);
  EXPECT_EQ(eqs->pair_store()->pair_count(),
            original.streaming_equations()->pair_store()->pair_count());
  EXPECT_EQ(image_of(restored), image);
}

// A checkpoint taken before the first snapshot serializes the stack first
// use would build (with the churn so far replayed), and a monitor restored
// from it runs on in lockstep with the original.
void expect_checkpoint_before_first_snapshot(
    core::CovarianceAccumulator accumulator, std::uint64_t seed) {
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  const auto options =
      monitor_options(accumulator, core::MonitorEngine::kStreaming);
  auto stream = make_stream(3 * options.window, seed);
  for (auto& y : stream) y[1] = 0.0;  // path 1 stays retired throughout

  core::LiaMonitor original(rrm.matrix(), options);
  original.set_path_active(1, false);
  const auto image = image_of(original);
  EXPECT_EQ(original.streaming_equations(), nullptr);  // saving built nothing
  core::LiaMonitor restored(rrm.matrix(), options);
  restore_from_image(restored, image);
  EXPECT_FALSE(restored.path_active(1));
  EXPECT_EQ(image_of(restored), image);

  std::size_t diagnosed = 0;
  for (std::size_t l = 0; l < stream.size(); ++l) {
    const auto a = original.observe(stream[l]);
    const auto b = restored.observe(stream[l]);
    ASSERT_EQ(a.has_value(), b.has_value()) << "tick " << l;
    if (!a) continue;
    ++diagnosed;
    ASSERT_EQ(a->loss.size(), b->loss.size());
    for (std::size_t k = 0; k < a->loss.size(); ++k) {
      EXPECT_EQ(a->loss[k], b->loss[k]) << "link " << k << " tick " << l;
    }
  }
  EXPECT_GT(diagnosed, options.window);
  EXPECT_EQ(image_of(restored), image_of(original));
}

TEST(CheckpointRoundTrip, MonitorSharingPairsRestoreInstallsTheLoadedStack) {
  expect_restore_installs_the_loaded_stack(
      core::CovarianceAccumulator::kSharingPairs, 271);
}

TEST(CheckpointRoundTrip, MonitorSharingPairsCheckpointBeforeFirstSnapshot) {
  expect_checkpoint_before_first_snapshot(
      core::CovarianceAccumulator::kSharingPairs, 272);
}

TEST(CheckpointRoundTrip, MonitorDenseRestoreInstallsTheLoadedStack) {
  expect_restore_installs_the_loaded_stack(core::CovarianceAccumulator::kDense,
                                           274);
}

TEST(CheckpointRoundTrip, MonitorDenseCheckpointBeforeFirstSnapshot) {
  expect_checkpoint_before_first_snapshot(core::CovarianceAccumulator::kDense,
                                          275);
}

// Both accumulators publish the stack's store: monitor.pairs is the
// store's pair count from the first snapshot on and after a restore.
void expect_pairs_counter_after_first_snapshot_and_restore(
    core::CovarianceAccumulator accumulator) {
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  const std::uint64_t pairs =
      core::SharingPairStore::build(rrm.matrix(), 1).pair_count();
  ASSERT_GT(pairs, 0u);
  auto options =
      monitor_options(accumulator, core::MonitorEngine::kStreaming);
  const auto stream = make_stream(options.window + 3, 273);

  obs::Registry registry;
  options.telemetry = &registry;
  core::LiaMonitor original(rrm.matrix(), options);
  EXPECT_EQ(registry.counter("monitor.pairs").value(), 0u);  // no store yet
  (void)original.observe(stream[0]);
  EXPECT_EQ(registry.counter("monitor.pairs").value(), pairs);
  for (std::size_t l = 1; l < stream.size(); ++l) {
    (void)original.observe(stream[l]);
  }
  EXPECT_EQ(registry.counter("monitor.pairs").value(), pairs);

  obs::Registry restored_registry;
  options.telemetry = &restored_registry;
  core::LiaMonitor restored(rrm.matrix(), options);
  restore_from_image(restored, image_of(original));
  EXPECT_EQ(restored_registry.counter("monitor.pairs").value(), pairs);
}

TEST(CheckpointRoundTrip, MonitorPairsCounterAfterFirstSnapshotAndRestore) {
  expect_pairs_counter_after_first_snapshot_and_restore(
      core::CovarianceAccumulator::kSharingPairs);
  expect_pairs_counter_after_first_snapshot_and_restore(
      core::CovarianceAccumulator::kDense);
}

}  // namespace
}  // namespace losstomo::io
