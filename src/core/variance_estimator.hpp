// Phase 1 of LIA: estimating the link variances v from end-to-end snapshots
// (paper §5.1).
//
// The moment system Sigma* = A v is solved by least squares.  Three solver
// backends are provided:
//  * kDenseQr      — materialise A, drop rows with negative sample
//                    covariance (the paper's policy), Householder QR.
//                    Exact paper method; only viable for small path sets.
//  * kNormal       — normal equations G v = h over the sharing-pair
//                    equations (exact drop-negative policy) or in closed
//                    form from the co-traversal Gram matrix (keep-all
//                    policy, scales to tens of thousands of paths without
//                    materialising the np(np+1)/2-row system).
//  * kNnls         — non-negative least squares on the normal equations;
//                    enforces v >= 0 by construction (extension, ablated in
//                    bench/ablation_estimator).
// kNormal and kNnls run one engine, StreamingNormalEquations: a batch
// estimate is a fresh instance refreshed once from the source and solved.
// kAuto picks per problem size; sampling-noise negatives in the LS solution
// are clamped to zero and counted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/sharing_pairs.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "stats/covariance_source.hpp"
#include "stats/moments.hpp"

namespace losstomo::core {

enum class VarianceMethod {
  kAuto,
  kDenseQr,
  kNormal,
  kNnls,
};

enum class NegativeCovariancePolicy {
  kAuto,  // drop when the pairwise pass is affordable, else keep
  kDrop,  // paper §5.1: "we ignore equations with sigma_ii' < 0"
  kKeep,  // keep every pair equation (enables the closed-form fast path)
};

struct VarianceOptions {
  VarianceMethod method = VarianceMethod::kAuto;
  NegativeCovariancePolicy negatives = NegativeCovariancePolicy::kAuto;
  /// Largest dense A (in doubles) the kDenseQr backend may build.
  std::size_t dense_entry_cap = 20'000'000;
  /// Largest path count for which the pairwise (drop-negative) accumulation
  /// runs; beyond it kAuto switches to the closed form (keep-all), whose
  /// cost is independent of the number of path pairs.
  std::size_t pairwise_path_cap = 2000;
  /// Worker threads for the blocked covariance kernels and the parallel
  /// normal-equation accumulation.  0 = library default (LOSSTOMO_THREADS
  /// environment variable, else hardware concurrency).  Results are
  /// bit-identical at any thread count.
  std::size_t threads = 0;
  /// Drop-negative only: jitter-ladder rung (linalg::RegularizedCholesky
  /// escalation attempts; 1 = the base jitter) at which the solve abandons
  /// the regularized factorization and degrades through the pivoted
  /// rank-revealing fallback — pinning pivot-deficient links to zero
  /// variance, like the dense-QR pivoted fallback.  The default 2 keeps
  /// the benign base-jitter solve (Tikhonov-like minimum-norm behaviour,
  /// which measures better downstream on barely-singular instances) and
  /// pins only when the guard would have to *amplify* the jitter;
  /// 1 pins on any jitter; <= 0 never pins (the pre-PR-4 behaviour).
  /// Links with no kept equation at all never reach this knob — they are
  /// identity-pinned exactly, with no jitter involved.
  int rank_revealing_min_attempts = 2;
  /// Runs the retained scalar implementation (per-pair O(m) covariance
  /// loops, sequential accumulation) instead of the blocked/parallel
  /// kernels; the system it assembles goes through the same solve.  Kept
  /// for the parity tests and as a debugging fallback; the two paths agree
  /// to last-ulps rounding (<= 1e-12 in practice, provided no pair
  /// covariance read from the blocked S sits within an ulp of the
  /// drop-negative zero boundary, where the two sums can disagree on its
  /// sign and so on one whole equation).
  bool use_reference_impl = false;
};

struct VarianceEstimate {
  linalg::Vector v;                  // per-link variance (>= 0)
  std::string method;                // backend actually used
  std::size_t equations_used = 0;    // pair equations entering the LS
  std::size_t equations_dropped = 0; // negative-covariance rows removed
  std::size_t negative_clamped = 0;  // LS outputs clamped up to 0
  double jitter_used = 0.0;          // Cholesky regularization, if any
  /// Drop-negative links solved as v = 0 instead of through the LS: links
  /// whose every pair equation was dropped (zero G diagonal — the system
  /// carries no information about them) plus, when equation drops leave G
  /// rank-deficient with positive diagonals, the pivot-deficient links of
  /// the rank-revealing fallback.  Replaces the old jitter-amplified
  /// solutions on singular systems.
  std::size_t links_pinned = 0;
};

/// The Phase-1 normal equations G v = h (G = A^T A restricted to the kept
/// pair equations, h = A^T Sigma*) before solving.
struct NormalEquations {
  linalg::Matrix g;
  linalg::Vector h;
  std::size_t used = 0;     // pair equations entering the system
  std::size_t dropped = 0;  // negative-covariance rows removed
};

/// The negative-covariance policy options.negatives resolves to for a
/// problem with np paths (kAuto drops below pairwise_path_cap).  Exposed so
/// streaming consumers mirror the batch resolution exactly.
bool resolve_negative_policy(const VarianceOptions& options, std::size_t np);

/// Assembles the covariance system without solving it — the system a
/// one-shot StreamingNormalEquations refresh holds, so under drop-negative
/// the links no kept equation covers come back identity-pinned (unit
/// diagonal, zero row and column).  Honours options.negatives / threads /
/// use_reference_impl exactly like estimate_link_variances (options.method
/// is ignored).  Exposed for benchmarking and diagnostics.
NormalEquations build_normal_equations(const linalg::SparseBinaryMatrix& r,
                                       const stats::SnapshotMatrix& y,
                                       const VarianceOptions& options = {});

/// Same system assembled from an abstract CovarianceSource (batch wrapper
/// or streaming accumulator).  `use_reference_impl` is ignored — the scalar
/// references are snapshot-based and live on the SnapshotMatrix overload.
/// Keep-all reads the source's centred samples (centered_flat()) and throws
/// std::invalid_argument for a source that serves none.
NormalEquations build_normal_equations(const linalg::SparseBinaryMatrix& r,
                                       const stats::CovarianceSource& source,
                                       const VarianceOptions& options = {});

/// Estimates link variances from m snapshots of the path observations.
/// `y` must have dim() == r.rows() and count() >= 2.  kNormal and kNnls
/// refresh a fresh StreamingNormalEquations once and solve it; the estimate
/// carries its method string without the "streaming-" prefix.
VarianceEstimate estimate_link_variances(const linalg::SparseBinaryMatrix& r,
                                         const stats::SnapshotMatrix& y,
                                         const VarianceOptions& options = {});

/// Estimates link variances from a CovarianceSource; the entry point
/// Lia::learn(source) uses.  `source.dim()` must equal r.rows().
VarianceEstimate estimate_link_variances(const linalg::SparseBinaryMatrix& r,
                                         const stats::CovarianceSource& source,
                                         const VarianceOptions& options = {});

/// Incrementally maintained Phase-1 normal equations: the one engine behind
/// both the monitoring loops and the batch estimate (a batch estimate is an
/// instance with no history — one refresh, one solve).
///
/// Two policies, two incremental strategies:
///  * keep-all: G = A^T A depends only on the routing matrix, so it is
///    assembled at construction, the Cholesky factorization is computed on
///    the first solve(), and every subsequent solve() is O(nc^2).
///    refresh() computes h with the closed form (augmented_normal_rhs) on
///    the source's centred window samples, in O(m * nnz(r)); no np x np
///    matrix is read;
///  * drop-negative: the sharing pairs live in a SharingPairStore built
///    *lazily* on the first refresh() (chunk-parallel, memory proportional
///    to the sharing structure — see core/sharing_pairs.hpp), so
///    constructing a monitor on a 10k+ path overlay costs nothing until
///    streaming actually starts.  Each refresh() re-reads every pair's
///    covariance; only pairs whose drop decision flipped touch G (exact
///    integer +/-1 counts).  solve() has one factor rule: it reuses the
///    cached Cholesky factor while G is exactly the factored G (no pair
///    has flipped since the factorization), and otherwise refactorizes G
///    with the jitter ladder — pivot floor, jitter rungs and the
///    rank-revealing fallback (rank_revealing_min_attempts).  A streaming
///    instance therefore makes the batch estimate's singular-window
///    decisions by construction: it runs the same code on the same integer
///    G.  (An iterative solve through a stale factor could not: h = A^T
///    Sigma lies in range(G), so its Krylov space never meets null(G), and
///    no test on that side sees a window that left G singular.)
///
/// Under drop-negative, refresh() rebuilds h from the source's current pair
/// covariances — cost proportional to the sharing structure, independent
/// of the window length — in the store's pair order, so an instance with
/// history and a fresh one refreshed from the same source hold the same G
/// and h bit for bit (methods kNormal and kNnls; kDenseQr callers must use
/// estimate_link_variances).
///
/// Thread-safety: refresh() parallelizes internally (bit-identical at any
/// VarianceOptions::threads); concurrent calls on one instance are not
/// supported.
class StreamingNormalEquations {
 public:
  /// O(nc^2) for keep-all (Gram assembly); O(nnz(r)) copy for
  /// drop-negative (the pair store is deferred to the first refresh).
  StreamingNormalEquations(const linalg::SparseBinaryMatrix& r,
                           const VarianceOptions& options = {});

  /// Drop-negative with an externally owned (shared) pair store — the
  /// configuration the pair-indexed covariance accumulator
  /// (core::PairMoments) uses, so refresh() reads each pair's covariance by
  /// its store index in O(1).  `store` must enumerate exactly the pairs of
  /// `r` and stay alive; the resolved policy must be drop-negative (throws
  /// std::invalid_argument otherwise).
  StreamingNormalEquations(const linalg::SparseBinaryMatrix& r,
                           const VarianceOptions& options,
                           std::shared_ptr<SharingPairStore> store);
  // Out of line: inlined into a function that builds and drops a one-shot
  // instance, GCC 12 -O3 reports the disengaged factor's destructor as
  // maybe-uninitialized (a false positive).
  ~StreamingNormalEquations();

  /// Recomputes h (and the sign-flipped parts of G under drop-negative)
  /// from the source's current statistics.  Keep-all reads
  /// source.centered_flat() (throws std::invalid_argument for a source
  /// that serves no samples, such as core::PairMoments).  Drop-negative
  /// reads each pair's covariance from the aligned PairMoments by index,
  /// else from S when the source keeps it (matrix_is_cheap()) or serves a
  /// window over which sharing pairs are at least 1/8 of all pairs, else
  /// as an O(m) product of the two centred window columns (covariance(i,
  /// j) for a source with no window).  A pair enters the system only when
  /// it is live (both paths' store rows live), ready (source.samples()
  /// covers the full window for both paths — path-churn warm-up), and its
  /// covariance is non-negative; skipped pairs count neither used nor
  /// dropped, so the counts match a one-shot refresh over the
  /// live-and-ready submatrix.
  const NormalEquations& refresh(const stats::CovarianceSource& source);

  // -- Path churn (scenario engine, src/scenario/) ------------------------
  //
  // Dimension changes never resize the factor: G stays nc x nc, and a link
  // whose every pair equation is gone is *identity-pinned* (unit diagonal,
  // zero elsewhere — its variance solves to exactly 0).  A path join or
  // leave therefore reaches G as integer pair flips plus pin/unpin steps
  // on the diagonal, and the next solve() refactorizes the changed G.
  // Drop-negative only (throws std::logic_error under keep-all).

  /// Marks a path's pairs live/dead.  Going dead immediately flips its
  /// kept pairs out of G (exact integer updates; the next solve
  /// refactorizes).  Builds the lazy pair store if needed.
  void set_path_live(std::size_t path, bool live);

  /// Registers one appended path (row r.rows()-1 of the grown routing
  /// matrix; earlier rows must be unchanged).  Its pairs join the store
  /// dropped — they enter G through refresh() once the covariance source
  /// reports them ready.  With a shared store this is the call that grows
  /// it: invoke BEFORE PairMoments::add_path.
  void add_path(const linalg::SparseBinaryMatrix& r);

  /// Batched growth: registers `count` appended paths (the trailing rows
  /// of `r`; earlier rows must be unchanged) in one step — the pair store
  /// grows once, state-identical to `count` add_path calls but without the
  /// per-row bookkeeping resizes.  Rows referencing new links require a
  /// grow_links() call first (r.cols() must equal the current link count;
  /// throws std::invalid_argument otherwise).
  void add_paths(const linalg::SparseBinaryMatrix& r, std::size_t count);

  /// Grows the link universe by `count` fresh trailing columns.  Fresh
  /// links have no kept pair equation yet, so they enter identity-pinned:
  /// G becomes diag(G, I) exactly, and the cached factor follows by
  /// bordered identity growth (linalg::RegularizedCholesky::append_identity)
  /// — no refactorization (a jittered factor, which represents G + j*I,
  /// is dropped instead).  Pairs covering the new links later unpin them
  /// through refresh().
  /// Drop-negative only (throws std::logic_error under keep-all).
  void grow_links(std::size_t count);

  /// Solves the current system for v, reusing the cached factorization
  /// while G is exactly the factored G and refactorizing otherwise.
  /// Requires a prior refresh().
  [[nodiscard]] VarianceEstimate solve();

  [[nodiscard]] const NormalEquations& system() const& { return sys_; }
  /// Moves the system out of an instance that is done with it (a one-shot
  /// build_normal_equations).
  [[nodiscard]] NormalEquations system() && { return std::move(sys_); }
  [[nodiscard]] bool drop_negative() const { return drop_negative_; }
  /// Full Cholesky factorizations performed so far (1 after the first
  /// solve under keep-all; under drop-negative one more for every solve
  /// that finds G changed since the cached factor).
  [[nodiscard]] std::size_t refactorizations() const {
    return refactorizations_;
  }
  /// Cholesky factorizations attempted by those refactorizations: the sum
  /// of jitter_attempts() + 1 over each jitter ladder, so a refactorization
  /// whose plain attempt failed counts 2 (or more).
  [[nodiscard]] std::size_t factor_attempts() const {
    return factor_attempts_;
  }
  /// Always 0: the factor is never up- or downdated.  Kept for report code
  /// that prints the factor-cache counters.
  [[nodiscard]] std::size_t rank1_updates() const { return 0; }
  /// Fresh virtual links absorbed mid-run via bordered identity growth
  /// (grow_links), each entering pinned without a refactorization.
  [[nodiscard]] std::size_t links_grown() const { return links_grown_; }
  /// Links currently identity-pinned (no kept pair equation covers them).
  [[nodiscard]] std::size_t links_pinned() const { return pins_active_; }
  /// Always 0: no solve iterates through a stale factor.  Kept, like
  /// rank1_updates(), for report code.
  [[nodiscard]] std::size_t refine_iterations() const { return 0; }
  /// Pair flips applied to G since the cached factor was computed — the
  /// refactorization trigger of the next solve().
  [[nodiscard]] std::size_t pending_flips() const { return pending_flips_; }
  /// The sharing-pair store: built lazily at the first drop-negative
  /// refresh (or shared from construction); nullptr before that and always
  /// under keep-all.
  [[nodiscard]] const SharingPairStore* pair_store() const {
    return pairs_.get();
  }

  // -- Checkpointing (io/checkpoint.hpp) ----------------------------------
  //
  // Serializes every piece of mutable state the incremental machinery
  // depends on: the integer-maintained G (drop-negative only: keep-all G
  // is a pure function of the routing, assembled once by the restore
  // target's constructor) and rhs, the cached RegularizedCholesky factor
  // (restored via from_state — NO refactorization on resume), the flips
  // pending against it, the kept-pair flags, link coverage, and the
  // counters.  `store_external` is true when the pair store is owned by
  // someone else (the monitor's shared PairMoments store) and serialized
  // there; otherwise an owned store is embedded.  Structure derived purely
  // from the routing matrix (column_paths_, the lazy pending_r_) is NOT
  // serialized — restore_state targets an instance freshly constructed
  // over the same (already restored) routing matrix and store
  // configuration, and throws io::CheckpointError(kMismatch) on any shape
  // or policy disagreement.  On failure *this is unchanged.
  void save_state(io::CheckpointWriter& writer, bool store_external) const;
  void restore_state(io::CheckpointReader& reader,
                     std::shared_ptr<SharingPairStore> shared_store);

 private:
  // The scalar references (VarianceOptions::use_reference_impl) assemble
  // their system from the snapshots themselves; the snapshot entry points
  // adopt it here — links with an all-zero G row identity-pinned, as a
  // refresh pins them — so it reaches the same solve().  solve() only.
  StreamingNormalEquations(NormalEquations sys, const VarianceOptions& options,
                           bool drop_negative);
  friend NormalEquations build_normal_equations(
      const linalg::SparseBinaryMatrix& r, const stats::SnapshotMatrix& y,
      const VarianceOptions& options);
  friend VarianceEstimate estimate_link_variances(
      const linalg::SparseBinaryMatrix& r, const stats::SnapshotMatrix& y,
      const VarianceOptions& options);

  void ensure_store();
  void apply_flips(const std::vector<std::size_t>& flips);
  void refactorize();

  VarianceOptions options_;
  std::size_t np_ = 0;
  std::size_t nc_ = 0;
  bool drop_negative_ = false;
  bool refreshed_ = false;
  // keep-all: per-link path lists for the closed-form rhs.
  std::vector<std::vector<std::uint32_t>> column_paths_;
  // drop-negative: routing matrix retained until the pair store is built
  // (kept current by add_path while still lazy).
  std::optional<linalg::SparseBinaryMatrix> pending_r_;
  std::shared_ptr<SharingPairStore> pairs_;
  std::vector<std::uint8_t> pair_kept_;
  // Identity pinning of links with no kept pair equation: kept-pair
  // coverage count per link (a link is pinned in G while it reads 0).
  std::vector<std::uint32_t> coverage_;
  std::size_t pins_active_ = 0;
  std::vector<std::size_t> path_pairs_scratch_;
  NormalEquations sys_;
  // The factor of G as it stood pending_flips_ flips ago; empty before the
  // first solve and after a growth that a jittered factor cannot follow.
  std::optional<linalg::RegularizedCholesky> factor_;
  std::size_t pending_flips_ = 0;
  std::size_t refactorizations_ = 0;
  std::size_t factor_attempts_ = 0;
  std::size_t links_grown_ = 0;
};

}  // namespace losstomo::core
