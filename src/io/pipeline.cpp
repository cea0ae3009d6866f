#include "io/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "obs/registry.hpp"
#include "sim/probe_sim.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace losstomo::io {

void Element::push(const SnapshotBatch& batch) {
  if (rows_counter_ != nullptr) {
    rows_counter_->add(batch.rows);
    bytes_counter_->add(batch.values.size() * sizeof(double));
  }
  do_push(batch);
}

void Element::set_telemetry(obs::Registry* registry, std::string_view name) {
  if (registry == nullptr) {
    rows_counter_ = nullptr;
    bytes_counter_ = nullptr;
    return;
  }
  const std::string base = "pipeline." + std::string(name) + ".";
  rows_counter_ = &registry->counter(base + "rows");
  bytes_counter_ = &registry->counter(base + "bytes");
}

void Source::set_telemetry(obs::Registry* registry, std::string_view name) {
  if (registry == nullptr) {
    rows_counter_ = nullptr;
    stall_histogram_ = nullptr;
    return;
  }
  const std::string base = "pipeline." + std::string(name) + ".";
  rows_counter_ = &registry->counter(base + "rows");
  stall_histogram_ = &registry->histogram(base + "stall_seconds");
}

void Source::note_produced(std::size_t rows, double seconds) {
  if (rows_counter_ == nullptr) return;
  rows_counter_->add(rows);
  stall_histogram_->observe(seconds);
}

void Element::finish() { emit_finish(); }

std::size_t Source::drain(Element& first, std::size_t block_rows) {
  if (block_rows == 0) {
    throw std::invalid_argument("pipeline drain needs block_rows > 0");
  }
  std::size_t total = 0;
  for (std::size_t got; (got = pump(first, block_rows)) > 0;) total += got;
  first.finish();
  return total;
}

// -- Sources ----------------------------------------------------------------

std::size_t BinaryTraceSource::pump(Element& sink, std::size_t max_rows) {
  const std::size_t left = reader_->snapshots() - cursor_;
  const std::size_t rows = std::min(left, max_rows);
  if (rows == 0) return 0;
  // Source-side "work" is just the mmap slice — timed anyway so the stall
  // histogram stays comparable across source kinds (page faults show up
  // here on a cold cache).
  util::Timer timer;
  const std::span<const double> values = reader_->rows(cursor_, rows);
  if (telemetry_enabled()) note_produced(rows, timer.seconds());
  sink.push({.values = values,
             .rows = rows,
             .paths = reader_->paths(),
             .log_transformed = reader_->log_transformed()});
  cursor_ += rows;
  return rows;
}

TextSnapshotSource::TextSnapshotSource(std::istream& is)
    : stream_(is, /*log_transform=*/false) {}

std::size_t TextSnapshotSource::pump(Element& sink, std::size_t max_rows) {
  util::Timer timer;
  block_.clear();
  std::size_t rows = 0;
  while (rows < max_rows && stream_.next(row_)) {
    block_.insert(block_.end(), row_.begin(), row_.end());
    ++rows;
  }
  if (rows == 0) return 0;
  if (telemetry_enabled()) note_produced(rows, timer.seconds());
  sink.push({.values = block_,
             .rows = rows,
             .paths = stream_.dim(),
             .log_transformed = false});
  return rows;
}

SimulatorSource::SimulatorSource(sim::SnapshotSimulator& simulator,
                                 std::size_t snapshots)
    : simulator_(&simulator), remaining_(snapshots) {}

std::size_t SimulatorSource::pump(Element& sink, std::size_t max_rows) {
  const std::size_t rows = std::min(remaining_, max_rows);
  if (rows == 0) return 0;
  util::Timer timer;
  block_.clear();
  std::size_t paths = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    const sim::Snapshot snap = simulator_->next();
    paths = snap.path_trans.size();
    block_.insert(block_.end(), snap.path_trans.data(),
                  snap.path_trans.data() + paths);
  }
  remaining_ -= rows;
  if (telemetry_enabled()) note_produced(rows, timer.seconds());
  sink.push({.values = block_,
             .rows = rows,
             .paths = paths,
             .log_transformed = false});
  return rows;
}

// -- Transforms -------------------------------------------------------------

void LogTransform::do_push(const SnapshotBatch& batch) {
  if (batch.log_transformed) {
    emit(batch);
    return;
  }
  buffer_.resize(batch.values.size());
  const double* in = batch.values.data();
  double* out = buffer_.data();
  // One tight pass over the whole block: the body is a pure element-wise
  // map (auto-vectorizable), chunked deterministically so results are
  // bit-identical at any thread count.  Same expression as
  // SnapshotStream::next — this is what pins text/binary bit-parity.
  util::parallel_for(
      batch.values.size(), 4096,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          out[i] = std::log(std::max(in[i], 1e-9));
        }
      },
      threads_);
  emit({.values = buffer_,
        .rows = batch.rows,
        .paths = batch.paths,
        .log_transformed = true});
}

Thin::Thin(std::size_t keep_every) : keep_every_(keep_every) {
  if (keep_every == 0) {
    throw std::invalid_argument("Thin needs keep_every > 0");
  }
}

void Thin::do_push(const SnapshotBatch& batch) {
  if (keep_every_ == 1) {
    emit(batch);
    return;
  }
  // Kept rows stay zero-copy: each is emitted as a 1-row sub-span of the
  // incoming block (rows of a batch are contiguous by contract).
  for (std::size_t r = 0; r < batch.rows; ++r) {
    const bool keep = phase_ == 0;
    phase_ = (phase_ + 1) % keep_every_;
    if (!keep) continue;
    emit({.values = batch.values.subspan(r * batch.paths, batch.paths),
          .rows = 1,
          .paths = batch.paths,
          .log_transformed = batch.log_transformed});
  }
}

// -- Sinks ------------------------------------------------------------------

void MonitorSink::do_push(const SnapshotBatch& batch) {
  if (!batch.log_transformed) {
    throw std::logic_error(
        "MonitorSink fed raw phi — insert a LogTransform upstream");
  }
  monitor_->observe_block(
      batch.values, batch.rows,
      on_inference_ ? core::LiaMonitor::InferenceFn(on_inference_)
                    : core::LiaMonitor::InferenceFn{});
  emit(batch);
}

void BinaryTraceSink::do_push(const SnapshotBatch& batch) {
  if (!writer_) {
    writer_ = std::make_unique<BinaryTraceWriter>(file_, batch.paths,
                                                  batch.log_transformed);
  }
  writer_->append_block(batch.values, batch.rows);
  snapshots_ += batch.rows;
  emit(batch);
}

void BinaryTraceSink::finish() {
  if (writer_) writer_->finish();
  emit_finish();
}

void TextSnapshotSink::do_push(const SnapshotBatch& batch) {
  if (batch.log_transformed) {
    throw std::logic_error(
        "text snapshot format stores phi; cannot serialize a "
        "log-transformed trace");
  }
  if (!wrote_header_) {
    *os_ << "# losstomo snapshots: one line per snapshot, phi per path\n";
    wrote_header_ = true;
  }
  // max_digits10 so the parsed-back double is bit-identical — the
  // convert round-trip test depends on it.
  const auto saved = os_->precision(std::numeric_limits<double>::max_digits10);
  for (std::size_t r = 0; r < batch.rows; ++r) {
    const double* row = batch.values.data() + r * batch.paths;
    for (std::size_t i = 0; i < batch.paths; ++i) {
      if (i) *os_ << ' ';
      *os_ << row[i];
    }
    *os_ << '\n';
  }
  os_->precision(saved);
  if (!*os_) {
    throw CheckpointError(CheckpointErrorKind::kIo,
                          "write failed on text snapshot sink");
  }
  emit(batch);
}

void CollectSink::do_push(const SnapshotBatch& batch) {
  if (rows_ == 0) {
    paths_ = batch.paths;
    log_transformed_ = batch.log_transformed;
  } else if (batch.paths != paths_ ||
             batch.log_transformed != log_transformed_) {
    throw std::logic_error("CollectSink saw an inconsistent batch");
  }
  values_.insert(values_.end(), batch.values.begin(), batch.values.end());
  rows_ += batch.rows;
  emit(batch);
}

OpenedSnapshotSource open_snapshot_source(const std::string& file) {
  OpenedSnapshotSource opened;
  if (is_binary_trace(file)) {
    auto reader =
        std::make_shared<BinaryTraceReader>(BinaryTraceReader::open(file));
    opened.source = std::make_unique<BinaryTraceSource>(*reader);
    opened.holder = reader;
    opened.binary = true;
    opened.log_transformed = reader->log_transformed();
    return opened;
  }
  auto is = std::make_shared<std::ifstream>(file);
  if (!*is) {
    throw CheckpointError(CheckpointErrorKind::kIo,
                          "cannot open snapshot file '" + file + "'");
  }
  opened.source = std::make_unique<TextSnapshotSource>(*is);
  opened.holder = is;
  return opened;
}

}  // namespace losstomo::io
