// Cholesky-family factorizations for symmetric positive (semi-)definite
// systems.
//
// These power the "implicit" large-scale paths of the library: the Phase-1
// normal equations (A^T A) v = A^T sigma and the Phase-2 reduced
// first-moment solve, both of which operate on Gram matrices derived from
// the routing matrix.  IncrementalCholesky is the core of the Phase-2
// column-elimination procedure: columns are admitted in decreasing variance
// order until the first dependent column, which identifies the minimal
// removal set (see src/core/elimination.hpp).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace losstomo::linalg {

/// Standard Cholesky (L L^T) of a symmetric positive definite matrix.
/// Immutable after construction — concurrent solve() calls are safe.
///
/// Blocked contract.  The factorization is left-looking over fixed panels
/// of 64 columns.  For a panel [j0, j0 + 64) every earlier column k < j0 is
/// first applied to the panel's rows i >= j0, then the panel's own columns
/// j0, j0 + 1, ... are applied in turn.  Every entry a_ij thus receives its
/// subtractions l_ik * l_jk one at a time in ascending k, followed by the
/// division by l_jj (or the pivot test and sqrt on the diagonal): no
/// partial sums are formed, so the pivot that fails is the one an
/// unblocked left-looking factorization fails at, and a failing
/// factorization stops within the failing column's panel.  The rows below
/// each panel's diagonal block are split over `threads` workers (0 = the
/// library default) in fixed-size chunks, and each row runs the same code
/// whichever worker takes it, so the factor is bit-identical at any thread
/// count.  It is not bitwise equal to the unblocked factor this kernel
/// replaced: that loop compiled to a different mix of fused and unfused
/// multiply-subtracts, so the two differ in rounding only (relative
/// Frobenius difference well under 1e-12).
class Cholesky {
 public:
  /// Factorizes `a` (moved in; only the lower triangle is read).
  /// O(n^3 / 3).  Preconditions: `a` square (std::invalid_argument) and SPD
  /// (std::runtime_error on a pivot at or below `min_pivot`).  The default
  /// floor of 0 accepts any positive pivot; callers factorizing matrices
  /// whose exact-arithmetic pivots can be exactly zero (integer normal
  /// equations after equation drops) pass a small absolute floor so
  /// rounding-level "positive" pivots are treated as the singularities
  /// they are instead of amplifying noise by ~1/pivot.
  explicit Cholesky(Matrix a, double min_pivot = 0.0, std::size_t threads = 0);

  [[nodiscard]] std::size_t dim() const { return l_.rows(); }

  /// Solves a x = b.  O(n^2); `b.size()` must equal dim().
  [[nodiscard]] Vector solve(std::span<const double> b) const;

  /// Lower-triangular factor.
  [[nodiscard]] const Matrix& l() const { return l_; }

  /// det(a)^(1/2) = prod of diagonal entries (useful for diagnostics).
  [[nodiscard]] double sqrt_det() const;

 private:
  Matrix l_;
};

/// Cholesky with additive diagonal regularization fallback: attempts a plain
/// factorization and, on failure, retries with `jitter * max_diag * I`
/// escalating by 10x up to `max_attempts`.  Returns the jitter actually
/// used; 0 for a clean factorization.  This is the pragmatic guard for
/// nearly-singular normal equations produced by sampling noise, and the
/// factor core::StreamingNormalEquations caches across ticks: besides the
/// ladder it outlives its construction without an O(n^3) refactorization
/// in two ways — re-adoption from a checkpoint (from_state) and exact
/// identity border growth (append_identity).
/// O(n^3 / 3) per attempt, all attempts in one work buffer that becomes the
/// factor.  Not thread-safe while append_identity runs; concurrent solve()
/// calls are safe.
class RegularizedCholesky {
 public:
  /// `min_pivot_rel` scales by the largest diagonal into the Cholesky
  /// pivot floor (0 keeps the accept-any-positive-pivot behaviour).
  /// `threads` as for Cholesky.  Throws std::runtime_error when even the
  /// largest jitter fails.
  explicit RegularizedCholesky(const Matrix& a, double jitter = 1e-12,
                               int max_attempts = 6,
                               double min_pivot_rel = 0.0,
                               std::size_t threads = 0);

  /// Reconstructs a factor from previously extracted state — `l` a valid
  /// lower-triangular factor plus the jitter diagnostics that produced it —
  /// WITHOUT refactorizing (no O(n^3) work; `l` must be square, throws
  /// std::invalid_argument otherwise).  This is the checkpoint-restore
  /// entry (io/checkpoint.hpp): a resumed streaming run re-adopts its
  /// cached factor instead of refactorizing.
  static RegularizedCholesky from_state(Matrix l, double jitter_used,
                                        int jitter_attempts);

  [[nodiscard]] std::size_t dim() const { return l_.rows(); }
  /// Solves A x = b with the current factor.  O(n^2).
  [[nodiscard]] Vector solve(std::span<const double> b) const;
  [[nodiscard]] double jitter_used() const { return jitter_used_; }
  /// Ladder rung that succeeded: 0 = clean factorization, 1 = the base
  /// jitter, k = base * 10^(k-1).  Values >= 2 mean the base jitter had to
  /// be *amplified* — the signal consumers use to switch to a
  /// rank-revealing fallback instead of trusting the regularized solve.
  [[nodiscard]] int jitter_attempts() const { return jitter_attempts_; }
  /// Current lower-triangular factor (of a + jitter_used * I, grown by
  /// any append_identity calls).
  [[nodiscard]] const Matrix& l() const { return l_; }

  /// Bordered growth: the factored matrix becomes diag(A, I_k) — `k` new
  /// trailing dimensions, decoupled (identity rows/columns).  Because the
  /// border is exactly the identity, the factor extends with unit diagonal
  /// entries and zero fill: no refactorization, and the extension is exact
  /// (the dimension-growth path of the streaming normal equations, where
  /// fresh virtual links enter identity-pinned).  Cost: O((dim + k)^2) for
  /// the storage copy only.
  void append_identity(std::size_t k);

 private:
  RegularizedCholesky() : l_(0, 0) {}  // from_state fills the members

  Matrix l_;
  double jitter_used_ = 0.0;
  int jitter_attempts_ = 0;
};

/// Diagonal-pivoted (rank-revealing) Cholesky of a PSD matrix:
/// P^T A P = L L^T with non-increasing pivots.  Stops when the largest
/// remaining pivot falls below rel_tol * (largest initial pivot), which
/// yields the numerical rank.
class PivotedCholesky {
 public:
  explicit PivotedCholesky(Matrix a, double rel_tol = 1e-10);

  [[nodiscard]] std::size_t rank() const { return rank_; }
  /// permutation()[k] = original index of the k-th pivot.
  [[nodiscard]] const std::vector<std::size_t>& permutation() const {
    return perm_;
  }

 private:
  std::size_t rank_ = 0;
  std::vector<std::size_t> perm_;
};

/// Incrementally grown Cholesky factor of a Gram matrix whose columns are
/// revealed one at a time.
///
/// Each `try_add(diag, cross)` call attempts to append a column with
/// self-inner-product `diag` and inner products `cross` against the
/// already-accepted columns.  If the squared residual of the new column
/// against the span of the accepted ones falls at or below
/// rel_tol * diag, the column is rejected (linearly dependent) and the
/// factor is unchanged.  Otherwise the factor grows by one row.
///
/// After construction, `solve(b)` solves (C^T C) x = b where C is the
/// matrix of accepted columns in insertion order.
class IncrementalCholesky {
 public:
  explicit IncrementalCholesky(double rel_tol = 1e-9);

  /// Number of accepted columns.
  [[nodiscard]] std::size_t size() const { return n_; }

  /// Attempts to append a column; returns true when accepted.
  /// `cross.size()` must equal size() (throws std::invalid_argument).
  /// O(size^2) — one forward substitution against the current factor.
  bool try_add(double diag, std::span<const double> cross);

  /// Squared residual of the most recent try_add (accepted or not);
  /// diagnostic for tolerance tuning.
  [[nodiscard]] double last_residual_sq() const { return last_res2_; }

  /// Solves (C^T C) x = b for b of length size().
  [[nodiscard]] Vector solve(std::span<const double> b) const;

  /// Forward substitution L w = b.
  [[nodiscard]] Vector forward(std::span<const double> b) const;
  /// Back substitution L^T x = w.
  [[nodiscard]] Vector backward(std::span<const double> w) const;

 private:
  // Row k of L (length k+1) starts at offset k(k+1)/2 in the packed store.
  [[nodiscard]] const double* row(std::size_t k) const {
    return packed_.data() + k * (k + 1) / 2;
  }

  double rel_tol_;
  std::size_t n_ = 0;
  std::vector<double> packed_;  // packed lower-triangular rows
  double last_res2_ = 0.0;
};

}  // namespace losstomo::linalg
