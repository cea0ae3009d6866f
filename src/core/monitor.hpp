// LiaMonitor — continuous monitoring on a sliding snapshot window.
//
// The deployment loop of the paper's §7: every measurement period a new
// snapshot arrives; the monitor keeps the most recent m snapshots,
// re-learns the link variances, and diagnoses the newest snapshot.  This
// is the pattern used by examples/overlay_monitoring and the §7.2.2
// duration study, packaged so library users get it directly.
//
// One tick serves every monitor: Phase 1 (the relearn) produces a
// VarianceEstimate over the link universe, Phase 2 eliminates the quietest
// links on the active-row submatrix and solves the newest snapshot
// gathered onto the active rows.  A monitor whose paths never churn is
// simply the case where every row is active.
//
// Two engines drive the per-tick relearn:
//  * kStreaming (default) — a StreamingNormalEquations instance keeps the
//    Phase-1 system and its cached Cholesky factor across ticks.  What it
//    reads depends on the negative-covariance policy:
//     - keep-all (kAuto's choice above pairwise_path_cap paths): G depends
//       only on the routing, so it is assembled and factorized exactly
//       once, and h is the batch closed form on the snapshot window —
//       O(m * nnz(R)) per relearn, bit-identical to the batch engine.  The
//       monitor keeps only the snapshot window (a stats::SnapshotRing;
//       push is O(np)) and no covariance accumulator;
//     - drop-negative: an incremental accumulator keeps the pair
//       covariances current under rank-1 add/retire updates, and each
//       refresh folds the pairs whose drop decision flipped into G.  A
//       relearn that finds G changed (on every measured workload, every
//       relearn) refactorizes it; the batch estimate runs the same
//       StreamingNormalEquations code, so both engines take the same
//       decisions on windows that leave G singular.  The accumulator is
//       selectable: the dense stats::StreamingMoments (full S, O(np^2)
//       per tick) or the pair-indexed core::PairMoments (sharing-pair
//       entries only, O(np + pairs) per tick — the configuration that
//       scales drop-negative monitoring to multi-thousand-path overlays).
//       Both are a stats::WindowMoments, and the monitor drives them
//       through that shared core.
//  * kBatch — the reference path: gather the m x np snapshot matrix from
//    the window and run the full Phase-1 estimate from scratch every
//    relearn.  Retained for parity tests, and required for
//    VarianceMethod::kDenseQr (the monitor falls back to it automatically
//    in that configuration).
// Both engines fold every observed snapshot into the window regardless of
// relearn_every.  Under keep-all they produce bit-identical variances and
// inferences (tests/core/monitor_keepall_parity_test); under drop-negative
// they agree to <= 1e-10 (see bench/monitor_streaming and
// tests/core/monitor_test), except that a pair covariance within the
// accumulator's drift of zero can resolve its drop decision differently
// than the batch engine (the policy is discontinuous at cov = 0).
//
// Path churn (scenario engine, src/scenario/): the monitored overlay may
// evolve mid-run — paths join, leave, change routes, and arrive in mass-
// growth bursts.  Routing-matrix rows can be appended one at a time
// (add_path) or as a batch (add_paths — one O(appended nnz) append + one
// accumulator growth for the whole burst, state-identical to the per-row
// loop), and activated/retired (set_path_active), while the streaming
// state carries over untouched for every unaffected path.  The *link*
// universe can grow too: add_paths rows may reference fresh columns
// (new_links), which enter identity-pinned through bordered growth of
// the cached factor — no refactorization.  Grown paths have an all-zero
// window history (the ring's zero tail).
// One rule, the monitor's stats::PathChurnLedger, decides what Phase 1
// reads: each relearn turns it into one per-path readiness mask that every
// engine reads.  A (re)joining path warms up for one full window before its
// pair equations enter (exactly the warm-up the initial window imposes),
// and a leaving path's equations leave at the next relearn, whose mask
// marks the path not ready.  Phase 2 re-eliminates on the active-row
// submatrix every relearn.
// Streaming churn requires the drop-negative policy.  Callers must keep
// supplying a snapshot entry for every known row — 0.0 for inactive
// paths (a deterministic filler; never read by the estimator).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/lia.hpp"
#include "core/pair_moments.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "stats/moments.hpp"
#include "stats/streaming.hpp"

namespace losstomo::io {
class CheckpointWriter;
class CheckpointReader;
}  // namespace losstomo::io

namespace losstomo::obs {
class Registry;
}  // namespace losstomo::obs

namespace losstomo::core {

enum class MonitorEngine {
  kStreaming,  // incremental sliding-window covariance (default)
  kBatch,      // full relearn from the materialised window (reference)
};

enum class CovarianceAccumulator {
  // Drop-negative: stats::StreamingMoments, full S, O(np^2) per tick.
  // Keep-all: no accumulator — the relearn reads the snapshot window.
  kDense,
  kSharingPairs,  // core::PairMoments: sharing-pair entries, O(np + pairs)
};

struct MonitorOptions {
  /// Learning-window length (the paper's m).
  std::size_t window = 50;
  /// Re-learn variances every `relearn_every` ticks (1 = every tick, the
  /// paper's procedure; larger values amortise Phase 1, which is the
  /// dominant cost — see bench/sec64_runtime).  Every snapshot still enters
  /// the window, so a delayed relearn sees the full intermediate history.
  /// A churn event forces a relearn at the next diagnosing tick so Phase 2
  /// always runs against the current active set.
  std::size_t relearn_every = 1;
  MonitorEngine engine = MonitorEngine::kStreaming;
  /// Streaming engine only: which incremental covariance accumulator backs
  /// the relearn.  kSharingPairs requires the streaming engine and a
  /// configuration that resolves to the drop-negative policy (throws
  /// std::invalid_argument otherwise).
  CovarianceAccumulator accumulator = CovarianceAccumulator::kDense;
  /// Streaming engine only: full recompute cadence of the incremental
  /// accumulator in ticks, bounding floating-point drift
  /// (stats::StreamingMomentsOptions::refresh_every); 0 = 2 * window.  No
  /// effect under keep-all, which keeps no incremental accumulator (the
  /// value still enters the checkpoint's configuration fingerprint).
  std::size_t refresh_every = 0;
  /// Telemetry sink (obs/registry.hpp); nullptr (the default) leaves the
  /// monitor uninstrumented.  The monitor registers its metric set, opens
  /// a tick span around every observe() with accumulate/solve phase spans
  /// around the per-tick work inside it, and publishes
  /// the deterministic counter set from serialized engine state at the end
  /// of every observe() — so the published values are bit-identical across
  /// thread counts and a checkpoint/restore (see docs/OBSERVABILITY.md).
  /// The registry must outlive the monitor.
  obs::Registry* telemetry = nullptr;
  LiaOptions lia{};
};

/// Feeds snapshots one at a time; once the window is full, every further
/// snapshot is diagnosed against variances learned from the preceding
/// window.
///
/// Thread-safety: single-writer — call observe() and the churn methods
/// from one thread.  Internal work parallelizes per
/// MonitorOptions::lia.variance.threads with bit-identical results at any
/// thread count.
class LiaMonitor {
 public:
  /// Takes the routing matrix by value (owned), so constructing from a
  /// temporary is safe.  Throws std::invalid_argument for window < 2,
  /// relearn_every == 0, or an inconsistent accumulator configuration.
  /// The streaming engine builds nothing here: its normal equations (and,
  /// under drop-negative, the pair store and the accumulator, dense
  /// StreamingMoments or PairMoments) are built at the first call that
  /// needs them (observe or add_paths), and restore_state installs the
  /// loaded ones instead, so a monitor that is constructed only to be restored
  /// never builds a stack.
  explicit LiaMonitor(linalg::SparseBinaryMatrix r, MonitorOptions options = {});
  LiaMonitor(LiaMonitor&&);
  LiaMonitor& operator=(LiaMonitor&&);
  ~LiaMonitor();

  /// Observes one snapshot (Y = log path transmission rates).  Returns the
  /// inference for this snapshot, or std::nullopt while the window is
  /// still filling (the first `window` snapshots are learning-only).
  /// `y.size()` must equal routing().rows() (throws
  /// std::invalid_argument).  Steady-state cost per tick (streaming
  /// engine), plus the solve — under keep-all O(nc^2) through the cached
  /// factor; under drop-negative an O(nc^3 / 3) refactorization whenever a
  /// pair flipped, which on every measured drop-negative workload is every
  /// relearn:
  ///  * keep-all: an O(np) window push + the closed-form refresh,
  ///    O(m np + m nnz(R));
  ///  * drop-negative: the accumulator update (O(np^2) dense, O(np +
  ///    pairs) pair-indexed) + the pair refresh (proportional to the
  ///    sharing structure), independent of the window length.
  /// The batch engine re-runs the full Phase-1 estimate on the window
  /// instead, with a fresh factorization every relearn.
  std::optional<LossInference> observe(std::span<const double> y);

  /// Per-diagnosing-tick callback for observe_block: (0-based tick index,
  /// the inference for that tick).
  using InferenceFn = std::function<void(std::size_t, const LossInference&)>;

  /// Observes `rows` consecutive snapshots from a contiguous row-major
  /// block of rows * routing().rows() doubles — the batched ingestion
  /// entry point (io::MonitorSink feeds mmap-backed binary-trace blocks
  /// here with zero copies).  Tick-identical to `rows` observe() calls:
  /// each row still advances the window, relearn cadence, and diagnosis
  /// exactly as observe() would, so inferences are bit-identical to the
  /// per-row loop.  `on_inference` (optional) fires for every tick that
  /// produces a diagnosis.
  void observe_block(std::span<const double> values, std::size_t rows,
                     const InferenceFn& on_inference = {});

  // -- Path churn ---------------------------------------------------------

  /// Activates (join) or retires (leave) path `path`.  A retired path
  /// leaves Phase 2's active submatrix, and its equations leave Phase 1 at
  /// the next relearn (which the churn forces at the next diagnosing
  /// tick); a (re)activated path warms up for one full window before its
  /// pair equations re-enter.  Streaming engine: requires the
  /// drop-negative policy (throws std::logic_error otherwise).
  void set_path_active(std::size_t path, bool active);

  /// Appends a new path (row) over the existing link universe; `links`
  /// must be column indices < routing().cols().  The path starts active
  /// with zero history.  Returns its row index.  Equivalent to a
  /// single-row add_paths().
  std::size_t add_path(std::vector<std::uint32_t> links);

  /// Mass growth: appends a batch of paths in ONE step — one O(appended
  /// nnz) routing-matrix append, one pair-store growth, one accumulator
  /// reallocation, one grouped normal-equation registration — where a loop
  /// of add_path calls would pay the accumulator/bookkeeping resize per
  /// row.  State-identical to that loop (bit-parity pinned by
  /// tests/core/monitor_growth_test).
  ///
  /// `rows[i]` lists path i's links as column indices
  /// < routing().cols() + new_links; indices >= routing().cols() denote
  /// FRESH virtual links, appended to the link universe in the same step
  /// (streaming engine: bordered identity growth of the cached factor —
  /// fresh links enter identity-pinned with no refactorization, and unpin
  /// once warmed pairs cover them).  All
  /// appended paths start active with zero history.  Returns the first
  /// appended row's index.  Throws std::invalid_argument on an empty
  /// batch or malformed rows, std::logic_error for streaming engines not
  /// resolving to drop-negative.
  std::size_t add_paths(std::vector<std::vector<std::uint32_t>> rows,
                        std::size_t new_links = 0);

  [[nodiscard]] bool path_active(std::size_t path) const {
    return ledger_.active(path);
  }
  [[nodiscard]] std::size_t active_path_count() const;

  /// Number of snapshots consumed so far.
  [[nodiscard]] std::size_t ticks() const { return ticks_; }
  /// True once diagnoses are being produced.
  [[nodiscard]] bool warmed_up() const { return ticks_ >= options_.window; }
  /// The Phase-1 estimate the current diagnoses use.  Throws
  /// std::logic_error while none exists: before the first relearn, and
  /// after a batch relearn that found fewer than two fully-windowed
  /// active paths.
  [[nodiscard]] const VarianceEstimate& variances() const;
  /// The engine actually driving relearns (kDenseQr configurations fall
  /// back to kBatch).
  [[nodiscard]] MonitorEngine engine() const { return engine_; }
  /// The accumulator backing the streaming engine.
  [[nodiscard]] CovarianceAccumulator accumulator() const {
    return options_.accumulator;
  }
  /// The streaming engine's incrementally maintained Phase-1 system, for
  /// factor-cache diagnostics (refactorizations, factor attempts, pending
  /// flips, pair store size); nullptr when the batch engine is driving,
  /// and until the first snapshot (or restore) builds the stack.
  [[nodiscard]] const StreamingNormalEquations* streaming_equations() const {
    return stack_.equations ? &*stack_.equations : nullptr;
  }
  [[nodiscard]] const linalg::SparseBinaryMatrix& routing() const {
    return r_;
  }

  // -- Checkpointing (io/checkpoint.hpp) ----------------------------------
  //
  // save_state serializes the complete mutable monitor: the (possibly
  // grown) routing matrix, tick/relearn counters, the activation ledger,
  // the current Phase-1 estimate, the streaming stack (under drop-negative
  // the pair store and the accumulator ring; the incrementally maintained
  // normal equations with their cached factor), and the snapshot window
  // when the relearn reads it (batch engine; streaming keep-all, whose
  // image is the window plus the cached factor and h — O(np m + nc^2), no
  // np x np matrix).  The Phase-2 elimination is NOT serialized — it is a
  // pure function of (active routing, variances) and is recomputed on
  // restore, bit-identically.
  //
  // A streaming monitor saved before its first snapshot serializes the
  // stack its first use would build, so the image does not depend on when
  // the stack was built.
  //
  // restore_state targets a monitor constructed with the SAME options and
  // the same *initial* routing matrix (paths appended mid-run are replayed
  // from the checkpoint); it validates a configuration fingerprint first
  // and throws io::CheckpointError(kMismatch) on disagreement.  All
  // payload is parsed and validated into temporaries before any member
  // changes, so a failed restore leaves the monitor fully usable.  A
  // restored monitor resumes bit-identically and keeps its cached factor:
  // the resume itself refactorizes nothing, so the run's refactorization
  // count equals the uninterrupted run's.
  void save_state(io::CheckpointWriter& writer) const;
  void restore_state(io::CheckpointReader& reader);

 private:
  struct Telemetry;  // pre-resolved metric handles (monitor.cpp)

  /// The streaming engine's state: the incrementally maintained normal
  /// equations and, under drop-negative, the covariance accumulator (dense
  /// StreamingMoments or PairMoments) and the pair store, which the stack
  /// owns, checkpoints, and shares with the equations (and PairMoments).
  /// Keep-all has neither: its relearn reads window_.
  struct Stack {
    std::shared_ptr<SharingPairStore> store;            // drop-negative only
    std::unique_ptr<stats::WindowMoments> accumulator;  // drop-negative only
    std::optional<StreamingNormalEquations> equations;
    void save_state(io::CheckpointWriter& writer) const;
    /// Fills an empty stack from `reader` over the restored routing `r`.
    void restore_state(io::CheckpointReader& reader,
                       const linalg::SparseBinaryMatrix& r,
                       const MonitorOptions& options);
  };

  /// A fresh stack over the current routing.
  [[nodiscard]] Stack make_stack() const;
  /// Builds the stack at its first use (no-op once built).
  void ensure_stack();

  void relearn();
  void rebuild_active();
  /// Mirrors the deterministic engine state into the attached registry
  /// (no-op without one).  Called at the end of every observe() and after
  /// a restore commit, so exported counters always reflect the serialized
  /// state they are derived from.
  void publish_telemetry();
  void push_snapshot(std::span<const double> y);
  [[nodiscard]] std::size_t window_fill() const;

  MonitorOptions options_;
  MonitorEngine engine_;
  linalg::SparseBinaryMatrix r_;  // authoritative (grows under add_path)
  // The snapshot window, when the relearn reads it rather than an
  // incremental accumulator: the batch engine, and streaming keep-all.
  std::optional<stats::SnapshotRing> window_;
  // Streaming engine state; empty until first use.
  Stack stack_;
  // Activation ledger, in pushes = ticks_ (every observe pushes one
  // snapshot), and the active-row submatrix Phase 2 runs on.
  stats::PathChurnLedger ledger_;
  bool active_dirty_ = true;
  std::vector<std::uint32_t> active_rows_;
  std::optional<linalg::SparseBinaryMatrix> active_r_;
  linalg::Vector y_active_;  // the snapshot gathered onto active_rows_
  // Phase-1 estimate and the Phase-2 elimination derived from it.
  std::optional<VarianceEstimate> variance_;
  std::optional<Elimination> elimination_;
  std::size_t ticks_ = 0;
  std::size_t since_learn_ = 0;
  std::unique_ptr<Telemetry> obs_;  // nullptr unless options.telemetry
};

}  // namespace losstomo::core
