#include "core/monitor.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "io/checkpoint.hpp"
#include "io/checkpoint_tags.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace losstomo::core {

// Pre-resolved telemetry handles: one name lookup per metric at
// construction, plain stores per tick afterwards.  Everything registered
// kDeterministic here is published (Counter::set / Gauge::set) from
// serialized engine state in publish_telemetry(), never live-counted, so
// the exported values inherit the engine's bit-identity guarantees.
struct LiaMonitor::Telemetry {
  obs::Registry* registry;
  // Deterministic counters (serialized engine state).
  obs::Counter* ticks;
  obs::Counter* refactorizations;
  obs::Counter* factor_attempts;
  obs::Counter* links_grown;
  obs::Counter* pairs;
  // Deterministic gauges (point-in-time serialized state).
  obs::Gauge* paths;
  obs::Gauge* active_paths;
  obs::Gauge* links;
  obs::Gauge* links_pinned;
  obs::Gauge* pending_flips;
  obs::Gauge* window_fill;
  obs::Gauge* equations_used;
  obs::Gauge* equations_dropped;
  obs::Gauge* negative_clamped;
  // Phase span ids.
  std::size_t tick_phase;
  std::size_t accumulate_phase;
  std::size_t solve_phase;

  explicit Telemetry(obs::Registry& r)
      : registry(&r),
        ticks(&r.counter("monitor.ticks")),
        refactorizations(&r.counter("monitor.refactorizations")),
        factor_attempts(&r.counter("monitor.factor_attempts")),
        links_grown(&r.counter("monitor.links_grown")),
        pairs(&r.counter("monitor.pairs")),
        paths(&r.gauge("monitor.paths")),
        active_paths(&r.gauge("monitor.active_paths")),
        links(&r.gauge("monitor.links")),
        links_pinned(&r.gauge("monitor.links_pinned")),
        pending_flips(&r.gauge("monitor.pending_flips")),
        window_fill(&r.gauge("monitor.window_fill")),
        equations_used(&r.gauge("monitor.estimate.equations_used")),
        equations_dropped(&r.gauge("monitor.estimate.equations_dropped")),
        negative_clamped(&r.gauge("monitor.estimate.negative_clamped")),
        tick_phase(r.phase("tick")),
        accumulate_phase(r.phase("accumulate")),
        solve_phase(r.phase("solve")) {}
};

namespace {

// Freeze the negative-covariance policy on the construction-time path set:
// churned relearns run over active submatrices whose row count may cross
// the kAuto pairwise cap, and the streaming and batch engines must resolve
// the policy identically for parity.
MonitorOptions resolve_monitor_options(MonitorOptions options,
                                       const linalg::SparseBinaryMatrix& r) {
  options.lia.variance.negatives =
      resolve_negative_policy(options.lia.variance, r.rows())
          ? NegativeCovariancePolicy::kDrop
          : NegativeCovariancePolicy::kKeep;
  return options;
}

stats::StreamingMomentsOptions accumulator_options(
    const MonitorOptions& options) {
  return {.window = options.window,
          .refresh_every = options.refresh_every,
          .threads = options.lia.variance.threads};
}

void save_estimate(io::CheckpointWriter& writer, const VarianceEstimate& e) {
  writer.begin_section(io::tags::kVarianceEstimate);
  writer.doubles(e.v);
  writer.str(e.method);
  writer.usize(e.equations_used);
  writer.usize(e.equations_dropped);
  writer.usize(e.negative_clamped);
  writer.f64(e.jitter_used);
  writer.usize(e.links_pinned);
  writer.end_section();
}

VarianceEstimate restore_estimate(io::CheckpointReader& reader) {
  reader.expect_section(io::tags::kVarianceEstimate);
  VarianceEstimate e;
  e.v = reader.doubles();
  e.method = reader.str();
  e.equations_used = reader.usize();
  e.equations_dropped = reader.usize();
  e.negative_clamped = reader.usize();
  e.jitter_used = reader.f64();
  e.links_pinned = reader.usize();
  reader.end_section();
  return e;
}

}  // namespace

LiaMonitor::LiaMonitor(linalg::SparseBinaryMatrix r, MonitorOptions options)
    : options_(resolve_monitor_options(std::move(options), r)),
      engine_(options_.engine),
      r_(std::move(r)) {
  if (options_.window < 2) throw std::invalid_argument("window must be >= 2");
  if (options_.relearn_every == 0) {
    throw std::invalid_argument("relearn_every must be >= 1");
  }
  // The streaming solve covers the normal-equation methods; the paper-exact
  // dense QR needs the materialised batch system.
  if (options_.lia.variance.method == VarianceMethod::kDenseQr) {
    engine_ = MonitorEngine::kBatch;
  }
  const bool drop_negative =
      options_.lia.variance.negatives == NegativeCovariancePolicy::kDrop;
  if (options_.accumulator == CovarianceAccumulator::kSharingPairs &&
      (engine_ != MonitorEngine::kStreaming || !drop_negative)) {
    throw std::invalid_argument(
        "the sharing-pair accumulator requires the streaming engine with "
        "the drop-negative policy");
  }
  active_.assign(r_.rows(), 1);
  activated_tick_.assign(r_.rows(), 0);
  if (options_.telemetry != nullptr) {
    obs_ = std::make_unique<Telemetry>(*options_.telemetry);
    publish_telemetry();
  }
}

LiaMonitor::Stack LiaMonitor::make_stack() const {
  Stack stack;
  if (options_.accumulator == CovarianceAccumulator::kDense) {
    if (!reads_window()) {
      stack.accumulator.emplace(r_.rows(), accumulator_options(options_));
    }
    stack.equations.emplace(r_, options_.lia.variance);
  } else {
    stack.store = std::make_shared<SharingPairStore>(
        SharingPairStore::build(r_, options_.lia.variance.threads));
    stack.pair_accumulator.emplace(stack.store, r_.rows(),
                                   accumulator_options(options_));
    stack.equations.emplace(r_, options_.lia.variance, stack.store);
  }
  // Paths retired before the first snapshot: on a fresh stack retiring
  // flips nothing, so this is the state the eager calls would have left.
  for (std::size_t i = 0; i < r_.rows(); ++i) {
    if (active_[i]) continue;
    stack.equations->set_path_live(i, false);
    if (stack.pair_accumulator) {
      stack.pair_accumulator->retire_path(i);
    } else {
      stack.accumulator->retire_path(i);
    }
  }
  return stack;
}

void LiaMonitor::ensure_stack() {
  if (engine_ == MonitorEngine::kStreaming && !stack_.equations) {
    stack_ = make_stack();
  }
}

void LiaMonitor::Stack::save_state(io::CheckpointWriter& writer) const {
  if (store) store->save_state(writer);
  if (pair_accumulator) {
    pair_accumulator->save_state(writer);
  } else if (accumulator) {
    accumulator->save_state(writer);
  }
  equations->save_state(writer, store != nullptr);
}

void LiaMonitor::Stack::restore_state(io::CheckpointReader& reader,
                                      const linalg::SparseBinaryMatrix& r,
                                      const MonitorOptions& options) {
  if (options.accumulator == CovarianceAccumulator::kDense) {
    // Keep-all keeps no accumulator (its relearn reads the window).
    if (options.lia.variance.negatives == NegativeCovariancePolicy::kDrop) {
      accumulator.emplace(r.rows(), accumulator_options(options));
      accumulator->restore_state(reader);
    }
    equations.emplace(r, options.lia.variance);
    equations->restore_state(reader, nullptr);
    return;
  }
  store = std::make_shared<SharingPairStore>();
  store->restore_state(reader);
  if (store->path_count() != r.rows()) {
    throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                              "pair store path count != routing rows");
  }
  pair_accumulator.emplace(store, r.rows(), accumulator_options(options));
  pair_accumulator->restore_state(reader);
  equations.emplace(r, options.lia.variance, store);
  equations->restore_state(reader, store);
}

LiaMonitor::LiaMonitor(LiaMonitor&&) = default;
LiaMonitor& LiaMonitor::operator=(LiaMonitor&&) = default;
LiaMonitor::~LiaMonitor() = default;

void LiaMonitor::publish_telemetry() {
  if (!obs_) return;
  Telemetry& t = *obs_;
  t.ticks->set(ticks_);
  t.paths->set(static_cast<double>(r_.rows()));
  t.links->set(static_cast<double>(r_.cols()));
  t.active_paths->set(static_cast<double>(active_path_count()));
  t.window_fill->set(static_cast<double>(window_fill()));
  if (const auto& eqs = stack_.equations) {
    t.refactorizations->set(eqs->refactorizations());
    t.factor_attempts->set(eqs->factor_attempts());
    t.links_grown->set(eqs->links_grown());
    t.links_pinned->set(static_cast<double>(eqs->links_pinned()));
    t.pending_flips->set(static_cast<double>(eqs->pending_flips()));
  }
  if (stack_.store) t.pairs->set(stack_.store->pair_count());
  if (variance_) {
    t.equations_used->set(static_cast<double>(variance_->equations_used));
    t.equations_dropped->set(static_cast<double>(variance_->equations_dropped));
    t.negative_clamped->set(static_cast<double>(variance_->negative_clamped));
  }
}

bool LiaMonitor::reads_window() const {
  return engine_ == MonitorEngine::kBatch ||
         options_.lia.variance.negatives != NegativeCovariancePolicy::kDrop;
}

std::size_t LiaMonitor::window_fill() const {
  if (stack_.pair_accumulator) return stack_.pair_accumulator->count();
  if (stack_.accumulator) return stack_.accumulator->count();
  return window_.size();
}

const stats::CovarianceSource& LiaMonitor::covariance_source() const {
  if (stack_.pair_accumulator) return *stack_.pair_accumulator;
  return *stack_.accumulator;
}

void LiaMonitor::push_snapshot(std::span<const double> y) {
  ensure_stack();
  if (stack_.pair_accumulator) {
    stack_.pair_accumulator->push(y);
    return;
  }
  if (stack_.accumulator) {
    stack_.accumulator->push(y);
    return;
  }
  window_.emplace_back(y.begin(), y.end());
  if (window_.size() > options_.window) window_.pop_front();
}

bool LiaMonitor::path_full(std::size_t i) const {
  if (!active_[i]) return false;
  const std::size_t fill = window_fill();
  // Snapshots pushed so far = ticks_ - 1 inside a relearn (the current
  // snapshot enters the window after diagnosis) — the exact mirror of the
  // accumulators' samples() bookkeeping.
  return fill > 0 && ticks_ - 1 - activated_tick_[i] >= fill;
}

const VarianceEstimate& LiaMonitor::variances() const {
  if (!variance_) throw std::logic_error("variances unavailable before learn");
  return *variance_;
}

std::size_t LiaMonitor::active_path_count() const {
  std::size_t count = 0;
  for (const auto a : active_) count += a != 0;
  return count;
}

void LiaMonitor::set_path_active(std::size_t path, bool active) {
  if (path >= r_.rows()) throw std::invalid_argument("path out of range");
  if (engine_ == MonitorEngine::kStreaming &&
      options_.lia.variance.negatives != NegativeCovariancePolicy::kDrop) {
    throw std::logic_error(
        "streaming path churn requires the drop-negative policy");
  }
  if ((active_[path] != 0) == active) return;
  active_[path] = active ? 1 : 0;
  if (active) activated_tick_[path] = ticks_;
  active_dirty_ = true;
  // Phase 2 must never run against a stale active set: force a relearn at
  // the next diagnosing tick.
  since_learn_ = options_.relearn_every;
  // An unbuilt stack replays the ledger when it is built (make_stack).
  if (stack_.equations) {
    stack_.equations->set_path_live(path, active);
    if (stack_.pair_accumulator) {
      if (active) {
        stack_.pair_accumulator->activate_path(path);
      } else {
        stack_.pair_accumulator->retire_path(path);
      }
    } else {
      if (active) {
        stack_.accumulator->activate_path(path);
      } else {
        stack_.accumulator->retire_path(path);
      }
    }
  }
}

std::size_t LiaMonitor::add_path(std::vector<std::uint32_t> links) {
  std::vector<std::vector<std::uint32_t>> rows;
  rows.push_back(std::move(links));
  return add_paths(std::move(rows));
}

std::size_t LiaMonitor::add_paths(std::vector<std::vector<std::uint32_t>> rows,
                                  std::size_t new_links) {
  if (engine_ == MonitorEngine::kStreaming &&
      options_.lia.variance.negatives != NegativeCovariancePolicy::kDrop) {
    throw std::logic_error(
        "streaming path churn requires the drop-negative policy");
  }
  if (rows.empty()) {
    throw std::invalid_argument("add_paths needs at least one row");
  }
  // Growth extends a built stack (fresh links enter through bordered
  // growth), so build it over the pre-growth routing first.
  ensure_stack();
  const std::size_t index = r_.rows();
  const std::size_t count = rows.size();
  r_.append_rows(new_links, std::move(rows));  // validates the rows
  active_.resize(index + count, 1);
  activated_tick_.resize(index + count, ticks_);
  active_dirty_ = true;
  since_learn_ = options_.relearn_every;
  if (engine_ == MonitorEngine::kStreaming) {
    // Order matters with a shared store: the equations grow the link basis
    // and the store, then the accumulator aligns its pair values to it.
    stack_.equations->grow_links(new_links);
    stack_.equations->add_paths(r_, count);
    if (stack_.pair_accumulator) {
      stack_.pair_accumulator->add_paths(count);
    } else {
      stack_.accumulator->add_paths(count);
    }
  }
  if (obs_) obs_->registry->note("monitor.grow");
  return index;
}

void LiaMonitor::rebuild_active() {
  if (!active_dirty_ && active_r_) return;
  active_rows_.clear();
  std::vector<std::vector<std::uint32_t>> rows;
  for (std::size_t i = 0; i < r_.rows(); ++i) {
    if (!active_[i]) continue;
    active_rows_.push_back(static_cast<std::uint32_t>(i));
    const auto row = r_.row(i);
    rows.emplace_back(row.begin(), row.end());
  }
  active_r_.emplace(r_.cols(), std::move(rows));
  active_dirty_ = false;
}

void LiaMonitor::relearn() {
  rebuild_active();
  if (!reads_window()) {
    stack_.equations->refresh(covariance_source());
    variance_ = stack_.equations->solve();
  } else {
    // Estimate from the active paths whose window entries are all real
    // measurements — the exact set whose pairs the accumulators report
    // ready.
    std::vector<std::uint32_t> full_rows;
    for (std::size_t i = 0; i < r_.rows(); ++i) {
      if (path_full(i)) full_rows.push_back(static_cast<std::uint32_t>(i));
    }
    if (full_rows.size() < 2) {
      // Not enough learned history to estimate anything yet.
      variance_.reset();
      elimination_.reset();
      return;
    }
    stats::SnapshotMatrix history(full_rows.size(), options_.window);
    for (std::size_t l = 0; l < options_.window; ++l) {
      const auto& y = window_[l];
      for (std::size_t idx = 0; idx < full_rows.size(); ++idx) {
        history.at(l, idx) = y[full_rows[idx]];
      }
    }
    if (engine_ == MonitorEngine::kStreaming) {
      // Keep-all streaming: no churn, so every path is full and `history`
      // is the whole window.  The batch closed form computes h from it;
      // G and its factor stay cached.
      stack_.equations->refresh(stats::BatchCovarianceSource(
          history, options_.lia.variance.threads));
      variance_ = stack_.equations->solve();
    } else {
      std::vector<std::vector<std::uint32_t>> rows;
      for (const auto i : full_rows) {
        const auto row = r_.row(i);
        rows.emplace_back(row.begin(), row.end());
      }
      const linalg::SparseBinaryMatrix sub(r_.cols(), std::move(rows));
      variance_ = estimate_link_variances(sub, history, options_.lia.variance);
    }
  }
  elimination_ = eliminate_low_variance_links(*active_r_, variance_->v,
                                              options_.lia.elimination);
}

void LiaMonitor::observe_block(std::span<const double> values,
                               std::size_t rows,
                               const InferenceFn& on_inference) {
  const std::size_t np = r_.rows();
  if (values.size() != rows * np) {
    throw std::invalid_argument("observe_block size != rows * paths");
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const auto inference = observe(values.subspan(r * np, np));
    if (on_inference && inference) on_inference(ticks_ - 1, *inference);
  }
}

std::optional<LossInference> LiaMonitor::observe(std::span<const double> y) {
  if (y.size() != r_.rows()) {
    throw std::invalid_argument("snapshot size");
  }
  // Root span of the tick; inside ScenarioRunner::step's own tick span it
  // folds into that one (obs::Span), so a tick is counted once.
  obs::Span tick_span(obs_ ? obs_->registry : nullptr,
                      obs_ ? obs_->tick_phase : 0);
  ++ticks_;
  std::optional<LossInference> result;
  if (window_fill() == options_.window) {
    // Window full: (re)learn if due, then diagnose this snapshot using the
    // PRECEDING window only (the paper's m-then-(m+1) split).
    if (!variance_ || ++since_learn_ >= options_.relearn_every) {
      obs::Span solve_span(obs_ ? obs_->registry : nullptr,
                           obs_ ? obs_->solve_phase : 0);
      relearn();
      since_learn_ = 0;
    }
    if (elimination_) {
      // Phase 2 on the active rows; with no churn that is every row.
      y_active_.resize(active_rows_.size());
      for (std::size_t idx = 0; idx < active_rows_.size(); ++idx) {
        y_active_[idx] = y[active_rows_[idx]];
      }
      result = infer_snapshot_losses(*active_r_, *elimination_, y_active_);
    }
  }
  // Every snapshot enters the window — also between relearns — so a
  // delayed relearn sees the full intermediate history.
  {
    obs::Span accumulate_span(obs_ ? obs_->registry : nullptr,
                              obs_ ? obs_->accumulate_phase : 0);
    push_snapshot(y);
  }
  publish_telemetry();
  return result;
}

void LiaMonitor::save_state(io::CheckpointWriter& writer) const {
  writer.begin_section(io::tags::kMonitor);
  // Configuration fingerprint — everything a divergent restore target
  // could silently disagree on.
  writer.usize(options_.window);
  writer.usize(options_.relearn_every);
  writer.u8(static_cast<std::uint8_t>(engine_));
  writer.u8(static_cast<std::uint8_t>(options_.accumulator));
  writer.boolean(options_.lia.variance.negatives ==
                 NegativeCovariancePolicy::kDrop);
  writer.usize(options_.refresh_every);
  // The grown routing matrix (the initial rows are its prefix).
  writer.usize(r_.cols());
  writer.usize(r_.rows());
  for (std::size_t i = 0; i < r_.rows(); ++i) writer.u32s(r_.row(i));
  writer.usize(ticks_);
  writer.usize(since_learn_);
  writer.u8s(active_);
  writer.sizes(activated_tick_);
  writer.boolean(variance_.has_value());
  if (variance_) save_estimate(writer, *variance_);
  if (engine_ == MonitorEngine::kStreaming) {
    if (stack_.equations) {
      stack_.save_state(writer);
    } else {
      make_stack().save_state(writer);
    }
  }
  if (reads_window()) {
    writer.usize(window_.size());
    for (const auto& y : window_) writer.doubles(y);
  }
  writer.end_section();
}

void LiaMonitor::restore_state(io::CheckpointReader& reader) {
  reader.expect_section(io::tags::kMonitor);
  const std::size_t window = reader.usize();
  const std::size_t relearn_every = reader.usize();
  const auto engine = static_cast<MonitorEngine>(reader.u8());
  const auto accumulator = static_cast<CovarianceAccumulator>(reader.u8());
  const bool drop_negative = reader.boolean();
  const std::size_t refresh_every = reader.usize();
  if (window != options_.window || relearn_every != options_.relearn_every ||
      engine != engine_ || accumulator != options_.accumulator ||
      drop_negative != (options_.lia.variance.negatives ==
                        NegativeCovariancePolicy::kDrop) ||
      refresh_every != options_.refresh_every) {
    throw io::CheckpointError(
        io::CheckpointErrorKind::kMismatch,
        "monitor configuration differs from the checkpointed one");
  }
  // Rebuild the grown routing matrix and verify the constructed monitor's
  // initial routing is its prefix.
  const std::size_t cols = reader.usize();
  const std::size_t nrows = reader.usize();
  if (nrows > reader.remaining() / 8) {
    throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                              "routing row count exceeds the payload");
  }
  std::vector<std::vector<std::uint32_t>> rows(nrows);
  for (auto& row : rows) {
    const std::vector<std::uint32_t> links = reader.u32s();
    row.assign(links.begin(), links.end());
  }
  if (cols < r_.cols() || nrows < r_.rows()) {
    throw io::CheckpointError(
        io::CheckpointErrorKind::kMismatch,
        "checkpointed routing matrix is smaller than the monitor's");
  }
  std::optional<linalg::SparseBinaryMatrix> new_r;
  try {
    new_r.emplace(cols, std::move(rows));
  } catch (const std::exception& e) {
    throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                              std::string("routing matrix: ") + e.what());
  }
  for (std::size_t i = 0; i < r_.rows(); ++i) {
    const auto mine = r_.row(i);
    const auto theirs = new_r->row(i);
    if (!std::equal(mine.begin(), mine.end(), theirs.begin(), theirs.end())) {
      throw io::CheckpointError(
          io::CheckpointErrorKind::kMismatch,
          "checkpointed routing does not extend the monitor's routing");
    }
  }
  const std::size_t ticks = reader.usize();
  const std::size_t since_learn = reader.usize();
  std::vector<std::uint8_t> active = reader.u8s();
  std::vector<std::size_t> activated_tick = reader.sizes();
  if (active.size() != nrows || activated_tick.size() != nrows) {
    throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                              "activation ledger size != path count");
  }
  std::optional<VarianceEstimate> estimate;
  if (reader.boolean()) estimate = restore_estimate(reader);
  if (estimate && estimate->v.size() != cols) {
    throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                              "variance estimate has wrong size");
  }

  // Reconstruct the engine stack over the restored routing, restore its
  // serialized state into the fresh objects, and only then commit.
  Stack stack;
  std::deque<linalg::Vector> snapshots;
  if (engine_ == MonitorEngine::kStreaming) {
    stack.restore_state(reader, *new_r, options_);
  }
  if (reads_window()) {
    const std::size_t stored = reader.usize();
    if (stored > options_.window) {
      throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                                "snapshot window larger than configured");
    }
    for (std::size_t l = 0; l < stored; ++l) {
      snapshots.emplace_back(reader.doubles());
      if (snapshots.back().size() != nrows) {
        throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                                  "window snapshot has wrong size");
      }
    }
  }
  reader.end_section();

  // Commit (non-throwing moves), then recompute the derived Phase-2 state.
  r_ = std::move(*new_r);
  ticks_ = ticks;
  since_learn_ = since_learn;
  active_ = std::move(active);
  activated_tick_ = std::move(activated_tick);
  active_dirty_ = true;
  active_rows_.clear();
  active_r_.reset();
  window_ = std::move(snapshots);
  stack_ = std::move(stack);
  variance_ = std::move(estimate);
  elimination_.reset();
  if (variance_) {
    rebuild_active();
    elimination_ = eliminate_low_variance_links(*active_r_, variance_->v,
                                                options_.lia.elimination);
  }
  if (obs_) {
    // The engine stack was rebuilt: drop a marker and republish from the
    // restored state.
    obs_->registry->note("monitor.restore");
    publish_telemetry();
  }
}

}  // namespace losstomo::core
