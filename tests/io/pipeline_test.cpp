// Ingestion pipeline semantics and the binary-vs-text parity contract:
// every element transforms exactly as documented, the convert round trip
// is bit-identical in both directions, and a monitor fed zero-copy off the
// mmap produces bit-identical inferences to the classic text loop at 1, 2,
// and 8 threads — factorization counters included.
#include "io/pipeline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "io/trace_io.hpp"
#include "sim/probe_sim.hpp"
#include "stats/rng.hpp"
#include "test_util.hpp"

namespace losstomo::io {
namespace {

std::string temp_file(const std::string& name) {
  return losstomo::testing::scratch_file(name);
}

SnapshotBatch phi_batch(std::span<const double> values, std::size_t rows,
                        std::size_t paths) {
  return {.values = values, .rows = rows, .paths = paths,
          .log_transformed = false};
}

TEST(Pipeline, LogTransformMatchesSnapshotStreamExpression) {
  const std::vector<double> phi{1.0, 0.5, 0.0, 1e-12, 0.999, 2.5e-9};
  LogTransform log;
  CollectSink sink;
  log.to(sink);
  log.push(phi_batch(phi, 2, 3));
  log.finish();
  ASSERT_EQ(sink.rows(), 2u);
  EXPECT_TRUE(sink.log_transformed());
  for (std::size_t i = 0; i < phi.size(); ++i) {
    const double expected = std::log(std::max(phi[i], 1e-9));
    EXPECT_EQ(std::memcmp(&sink.values()[i], &expected, sizeof(double)), 0)
        << "value " << i;
  }
}

TEST(Pipeline, LogTransformIsBitIdenticalAtAnyThreadCount) {
  stats::Rng rng(5);
  std::vector<double> phi(64 * 1024);
  for (auto& v : phi) v = rng.uniform();
  std::vector<std::vector<double>> results;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    LogTransform log(threads);
    CollectSink sink;
    log.to(sink);
    log.push(phi_batch(phi, 64, 1024));
    results.push_back(sink.values());
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(Pipeline, LogTransformPassesTransformedBatchesThrough) {
  const std::vector<double> y{-0.5, -1.0};
  LogTransform log;
  CollectSink sink;
  log.to(sink);
  log.push({.values = y, .rows = 1, .paths = 2, .log_transformed = true});
  EXPECT_EQ(sink.values(), y);
  EXPECT_TRUE(sink.log_transformed());
}

TEST(Pipeline, ThinKeepsEveryKthAcrossBatchBoundaries) {
  // 7 rows arriving as batches of 3+2+2; keep_every=3 must keep global
  // rows 0, 3, 6 regardless of the batch seams.
  std::vector<double> rows(7);
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = double(i);
  Thin thin(3);
  CollectSink sink;
  thin.to(sink);
  thin.push(phi_batch(std::span(rows).subspan(0, 3), 3, 1));
  thin.push(phi_batch(std::span(rows).subspan(3, 2), 2, 1));
  thin.push(phi_batch(std::span(rows).subspan(5, 2), 2, 1));
  thin.finish();
  EXPECT_EQ(sink.values(), (std::vector<double>{0.0, 3.0, 6.0}));
}

TEST(Pipeline, ThinOneIsZeroCopyPassThrough) {
  const std::vector<double> rows{1.0, 2.0};
  Thin thin(1);
  struct SpanCheck final : Element {
    const double* expected = nullptr;
    void do_push(const SnapshotBatch& batch) override {
      EXPECT_EQ(batch.values.data(), expected);
    }
  } check;
  check.expected = rows.data();
  thin.to(check);
  thin.push(phi_batch(rows, 2, 1));
  EXPECT_THROW(Thin(0), std::invalid_argument);
}

TEST(Pipeline, MonitorSinkRejectsRawPhi) {
  const linalg::SparseBinaryMatrix r(2, {{0}, {1}});
  core::LiaMonitor monitor(r, {.window = 2});
  MonitorSink sink(monitor);
  const std::vector<double> phi{0.5, 0.5};
  EXPECT_THROW(sink.push(phi_batch(phi, 1, 2)), std::logic_error);
}

TEST(Pipeline, TextSnapshotSinkRejectsLogStreams) {
  std::ostringstream os;
  TextSnapshotSink sink(os);
  const std::vector<double> y{-0.5};
  EXPECT_THROW(sink.push({.values = y, .rows = 1, .paths = 1,
                          .log_transformed = true}),
               std::logic_error);
}

// -- Conversion round trips --------------------------------------------------

std::vector<std::vector<double>> simulated_campaign(
    const net::Graph& graph, const net::ReducedRoutingMatrix& rrm,
    std::size_t ticks) {
  sim::ScenarioConfig config;
  config.p = 0.15;
  sim::SnapshotSimulator simulator(graph, rrm, config, 99);
  std::vector<std::vector<double>> rows;
  for (std::size_t t = 0; t < ticks; ++t) {
    rows.push_back(simulator.next().path_trans);
  }
  return rows;
}

TEST(Pipeline, ConvertRoundTripsBitIdenticalDoublesBothWays) {
  stats::Rng rng(41);
  const auto mesh = losstomo::testing::make_random_mesh(26, 8, rng);
  const net::ReducedRoutingMatrix rrm(mesh.topo.graph, mesh.paths);
  const auto rows = simulated_campaign(mesh.topo.graph, rrm, 12);
  const auto text1 = temp_file("rt.snapshots");
  const auto bin1 = temp_file("rt1.bin");
  const auto text2 = temp_file("rt2.snapshots");
  const auto bin2 = temp_file("rt2.bin");
  save_snapshots(text1, rows);

  // text -> binary
  {
    auto opened = open_snapshot_source(text1);
    ASSERT_FALSE(opened.binary);
    BinaryTraceSink sink(bin1);
    EXPECT_EQ(opened.source->drain(sink), rows.size());
  }
  // binary -> text
  {
    auto opened = open_snapshot_source(bin1);
    ASSERT_TRUE(opened.binary);
    std::ofstream os(text2);
    TextSnapshotSink sink(os);
    EXPECT_EQ(opened.source->drain(sink), rows.size());
  }
  // text -> binary again
  {
    auto opened = open_snapshot_source(text2);
    BinaryTraceSink sink(bin2);
    EXPECT_EQ(opened.source->drain(sink), rows.size());
  }

  // Binary payloads bit-identical through the text detour: every double
  // survived both directions exactly.
  const auto a = BinaryTraceReader::open(bin1);
  const auto b = BinaryTraceReader::open(bin2);
  ASSERT_EQ(a.snapshots(), b.snapshots());
  ASSERT_EQ(a.paths(), b.paths());
  const auto ra = a.rows(0, a.snapshots());
  const auto rb = b.rows(0, b.snapshots());
  EXPECT_EQ(std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(double)), 0);
  // And the binary values are bit-identical to the simulated originals.
  for (std::size_t t = 0; t < rows.size(); ++t) {
    const auto row = a.row(t);
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(std::memcmp(&row[i], &rows[t][i], sizeof(double)), 0);
    }
  }
}

TEST(Pipeline, SimulatorSourceMatchesDirectSimulation) {
  stats::Rng rng(43);
  const auto mesh = losstomo::testing::make_random_mesh(24, 7, rng);
  const net::ReducedRoutingMatrix rrm(mesh.topo.graph, mesh.paths);
  sim::ScenarioConfig config;
  config.p = 0.2;
  sim::SnapshotSimulator direct(mesh.topo.graph, rrm, config, 7);
  sim::SnapshotSimulator piped(mesh.topo.graph, rrm, config, 7);
  const std::size_t ticks = 9;
  SimulatorSource source(piped, ticks);
  CollectSink sink;
  EXPECT_EQ(source.drain(sink, 4), ticks);
  ASSERT_EQ(sink.rows(), ticks);
  for (std::size_t t = 0; t < ticks; ++t) {
    const auto expected = direct.next().path_trans;
    const auto got = sink.row(t);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]);
    }
  }
}

// -- The acceptance criterion: binary vs text monitor parity ------------------

TEST(Pipeline, BinaryIngestionInferencesBitIdenticalToTextPath) {
  stats::Rng rng(53);
  const auto mesh = losstomo::testing::make_random_mesh(34, 12, rng);
  const net::ReducedRoutingMatrix rrm(mesh.topo.graph, mesh.paths);
  const std::size_t np = rrm.path_count();
  const std::size_t window = 14, ticks = 40;
  const auto campaign = simulated_campaign(mesh.topo.graph, rrm, ticks);
  const auto text_file = temp_file("parity.snapshots");
  const auto bin_file = temp_file("parity.bin");
  save_snapshots(text_file, campaign);
  {
    auto opened = open_snapshot_source(text_file);
    BinaryTraceSink sink(bin_file);
    opened.source->drain(sink);
  }

  for (const std::size_t threads : {1u, 2u, 8u}) {
    core::MonitorOptions options{.window = window};
    options.lia.variance.threads = threads;
    const std::string label = "threads=" + std::to_string(threads);

    // Reference: the classic per-line text loop (SnapshotStream applies
    // the log transform itself).
    core::LiaMonitor text_monitor(rrm.matrix(), options);
    std::vector<linalg::Vector> text_inferences;
    {
      std::ifstream is(text_file);
      SnapshotStream stream(is);
      std::vector<double> y;
      while (stream.next(y)) {
        if (const auto inf = text_monitor.observe(y)) {
          text_inferences.push_back(inf->loss);
        }
      }
    }

    // Candidate: mmap -> zero-copy blocks -> LogTransform -> observe_block.
    core::LiaMonitor binary_monitor(rrm.matrix(), options);
    std::vector<linalg::Vector> binary_inferences;
    {
      const auto reader = BinaryTraceReader::open(bin_file);
      ASSERT_EQ(reader.paths(), np);
      BinaryTraceSource source(reader);
      LogTransform log(threads);
      MonitorSink sink(binary_monitor,
                       [&](std::size_t, const core::LossInference& inf) {
                         binary_inferences.push_back(inf.loss);
                       });
      log.to(sink);
      source.drain(log);
    }

    ASSERT_EQ(text_inferences.size(), ticks - window) << label;
    ASSERT_EQ(binary_inferences.size(), text_inferences.size()) << label;
    for (std::size_t t = 0; t < text_inferences.size(); ++t) {
      for (std::size_t k = 0; k < text_inferences[t].size(); ++k) {
        EXPECT_EQ(text_inferences[t][k], binary_inferences[t][k])
            << label << " tick " << t << " link " << k;
      }
    }
    // Same per-tick work on both paths: the factor cache behaved
    // identically (keep-all never refactorizes after the first learn).
    const auto* text_eqs = text_monitor.streaming_equations();
    const auto* binary_eqs = binary_monitor.streaming_equations();
    ASSERT_NE(text_eqs, nullptr) << label;
    ASSERT_NE(binary_eqs, nullptr) << label;
    EXPECT_EQ(binary_eqs->refactorizations(), text_eqs->refactorizations())
        << label;
    EXPECT_EQ(binary_eqs->factor_attempts(), text_eqs->factor_attempts())
        << label;
  }
}

TEST(Pipeline, OpenSnapshotSourceRejectsMissingFile) {
  EXPECT_THROW(open_snapshot_source(temp_file("nope.snapshots")),
               CheckpointError);
}

}  // namespace
}  // namespace losstomo::io
