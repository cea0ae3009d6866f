#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "util/parallel.hpp"

namespace losstomo::linalg {

namespace {

// Forward + back substitution with a lower-triangular factor: solves
// (L L^T) x = b.  Shared by every factor-owning class in this file.
Vector solve_llt(const Matrix& l, std::span<const double> b) {
  const std::size_t n = l.rows();
  if (b.size() != n) throw std::invalid_argument("rhs size mismatch");
  Vector w(b.begin(), b.end());
  for (std::size_t i = 0; i < n; ++i) {
    double s = w[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * w[k];
    w[i] = s / l(i, i);
  }
  for (std::size_t ri = n; ri-- > 0;) {
    double s = w[ri];
    for (std::size_t k = ri + 1; k < n; ++k) s -= l(k, ri) * w[k];
    w[ri] = s / l(ri, ri);
  }
  return w;
}

// Panel width of the blocked factorization (a contract constant, see
// cholesky.hpp): a full panel row is 64 doubles, 512 bytes.
constexpr std::size_t kPanel = 64;
// Rows per chunk of the parallel panel update; fixed, so the chunking (and
// with it the two-row pairing below) is the same at any thread count.
constexpr std::size_t kRowGrain = 16;

// Applies columns [0, j0) to entries [j0, j0 + w) of a row:
// a_ij -= l_ik * l_jk for k = 0, 1, ..., j0 - 1 in turn.  `lt` holds the
// panel's rows transposed, l_jk at lt[k * kPanel + (j - j0)], so the inner
// loop runs along j and vectorizes across entries.
void apply_left(double* row, const double* lt, std::size_t j0,
                std::size_t w) {
  double* out = row + j0;
  for (std::size_t k = 0; k < j0; ++k) {
    const double lik = row[k];
    const double* ljk = lt + k * kPanel;
    for (std::size_t jj = 0; jj < w; ++jj) out[jj] -= lik * ljk[jj];
  }
}

// apply_left over a full panel on R rows at once: each transposed panel row
// is loaded once for all R, and the R x 64 accumulator stays in registers.
// Entry for entry the operations are those of apply_left.
template <std::size_t R>
void apply_left_full(double* const (&rows)[R], const double* lt,
                     std::size_t j0) {
  double acc[R][kPanel];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t jj = 0; jj < kPanel; ++jj) acc[r][jj] = rows[r][j0 + jj];
  }
  for (std::size_t k = 0; k < j0; ++k) {
    double lik[R];
    for (std::size_t r = 0; r < R; ++r) lik[r] = rows[r][k];
    const double* ljk = lt + k * kPanel;
    for (std::size_t jj = 0; jj < kPanel; ++jj) {
      for (std::size_t r = 0; r < R; ++r) acc[r][jj] -= lik[r] * ljk[jj];
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t jj = 0; jj < kPanel; ++jj) rows[r][j0 + jj] = acc[r][jj];
  }
}

// Finishes a row below the diagonal block on the panel's columns: for each
// panel column kk in turn, l_ik = a_ik / l_kk, then a_ij -= l_ik * l_jk on
// the panel columns j > kk.  Per entry that is the left-looking sequence
// (ascending k, then the division).  `dt` holds the factored diagonal
// block transposed, l_jk at dt[(k - j0) * kPanel + (j - j0)].
void finish_row(double* seg, const double* dt) {
  for (std::size_t kk = 0; kk < kPanel; ++kk) {
    const double* lk = dt + kk * kPanel;
    const double lik = seg[kk] / lk[kk];
    seg[kk] = lik;
    for (std::size_t jj = kk + 1; jj < kPanel; ++jj) seg[jj] -= lik * lk[jj];
  }
}

// Panel-blocked left-looking Cholesky in place: the lower triangle of `l`
// becomes L, the strict upper triangle zero.  Throws std::runtime_error at
// the first pivot at or below `min_pivot` (leaving `l` partly overwritten).
void factorize_in_place(Matrix& l, double min_pivot, std::size_t threads) {
  if (l.rows() != l.cols()) throw std::invalid_argument("not square");
  const std::size_t n = l.rows();
  std::vector<double> lt(n * kPanel);      // earlier columns x panel, reused
  std::vector<double> dt(kPanel * kPanel);  // factored diagonal block
  for (std::size_t j0 = 0; j0 < n; j0 += kPanel) {
    const std::size_t j1 = std::min(j0 + kPanel, n);
    const std::size_t w = j1 - j0;
    for (std::size_t k = 0; k < j0; ++k) {
      for (std::size_t jj = 0; jj < w; ++jj) {
        lt[k * kPanel + jj] = l(j0 + jj, k);
      }
    }
    // Diagonal block, row by row; row r needs rows < r of the block.
    for (std::size_t r = 0; r < w; ++r) {
      const auto row = l.row(j0 + r);
      apply_left(row.data(), lt.data(), j0, r + 1);
      double* seg = row.data() + j0;
      for (std::size_t kk = 0; kk < r; ++kk) {
        double* lk = dt.data() + kk * kPanel;
        const double lik = seg[kk] / lk[kk];
        seg[kk] = lik;
        lk[r] = lik;
        for (std::size_t jj = kk + 1; jj <= r; ++jj) seg[jj] -= lik * lk[jj];
      }
      const double d = seg[r];
      if (!(d > min_pivot)) {
        throw std::runtime_error("Cholesky: matrix not SPD");
      }
      seg[r] = std::sqrt(d);
      dt[r * kPanel + r] = seg[r];
      // Zero the strict upper triangle so l() is a clean factor.
      std::fill(row.begin() + static_cast<std::ptrdiff_t>(j0 + r + 1),
                row.end(), 0.0);
    }
    if (j1 == n) break;
    // Rows below the block are independent; the panel is full (w = 64).
    util::parallel_for(
        n - j1, kRowGrain,
        [&](std::size_t begin, std::size_t end) {
          std::size_t i = j1 + begin;
          for (; i + 1 < j1 + end; i += 2) {
            double* const pair[2] = {l.row(i).data(), l.row(i + 1).data()};
            apply_left_full(pair, lt.data(), j0);
            finish_row(pair[0] + j0, dt.data());
            finish_row(pair[1] + j0, dt.data());
          }
          if (i < j1 + end) {
            double* const one[1] = {l.row(i).data()};
            apply_left_full(one, lt.data(), j0);
            finish_row(one[0] + j0, dt.data());
          }
        },
        threads);
  }
}

// The jitter ladder shared by RegularizedCholesky and UpdatableCholesky:
// a plain attempt, then `jitter * max_diag * I` escalating by 10x.  Every
// attempt factorizes in the one work buffer, refilled from `a`.
struct Ladder {
  Matrix l;
  double jitter_used = 0.0;
  int attempts = 0;  // rung that succeeded
};

Ladder factor_ladder(const Matrix& a, double jitter, int max_attempts,
                     double min_pivot_rel, std::size_t threads) {
  double max_diag = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    max_diag = std::max(max_diag, std::fabs(a(i, i)));
  }
  if (max_diag == 0.0) max_diag = 1.0;
  const double min_pivot = min_pivot_rel * max_diag;

  Ladder rung{.l = a};
  double eps = 0.0;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      std::copy(a.data().begin(), a.data().end(), rung.l.data().begin());
      for (std::size_t i = 0; i < a.rows(); ++i) rung.l(i, i) += eps;
    }
    try {
      factorize_in_place(rung.l, min_pivot, threads);
      rung.jitter_used = eps;
      rung.attempts = attempt;
      return rung;
    } catch (const std::runtime_error&) {
      eps = (eps == 0.0) ? jitter * max_diag : eps * 10.0;
    }
  }
  throw std::runtime_error("RegularizedCholesky: factorization failed");
}

}  // namespace

Cholesky::Cholesky(Matrix a, double min_pivot, std::size_t threads)
    : l_(std::move(a)) {
  factorize_in_place(l_, min_pivot, threads);
}

Vector Cholesky::solve(std::span<const double> b) const {
  return solve_llt(l_, b);
}

double Cholesky::sqrt_det() const {
  double p = 1.0;
  for (std::size_t i = 0; i < dim(); ++i) p *= l_(i, i);
  return p;
}

RegularizedCholesky::RegularizedCholesky(const Matrix& a, double jitter,
                                         int max_attempts,
                                         double min_pivot_rel,
                                         std::size_t threads) {
  Ladder rung =
      factor_ladder(a, jitter, max_attempts, min_pivot_rel, threads);
  factor_.emplace(Cholesky(std::move(rung.l), Cholesky::Factored{}));
  jitter_used_ = rung.jitter_used;
  jitter_attempts_ = rung.attempts;
}

Vector RegularizedCholesky::solve(std::span<const double> b) const {
  return factor_->solve(b);
}

UpdatableCholesky::UpdatableCholesky(const Matrix& a, double jitter,
                                     int max_attempts,
                                     double min_pivot_rel,
                                     std::size_t threads) {
  Ladder rung =
      factor_ladder(a, jitter, max_attempts, min_pivot_rel, threads);
  l_ = std::move(rung.l);
  jitter_used_ = rung.jitter_used;
  jitter_attempts_ = rung.attempts;
}

UpdatableCholesky UpdatableCholesky::from_state(Matrix l, double jitter_used,
                                                int jitter_attempts) {
  if (l.rows() != l.cols()) {
    throw std::invalid_argument("from_state: factor must be square");
  }
  UpdatableCholesky chol;
  chol.l_ = std::move(l);
  chol.jitter_used_ = jitter_used;
  chol.jitter_attempts_ = jitter_attempts;
  return chol;
}

void UpdatableCholesky::append_identity(std::size_t k) {
  if (k == 0) return;
  const std::size_t n = dim();
  Matrix grown(n + k, n + k);
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = l_.row(i);
    std::copy(src.begin(), src.end(), grown.row(i).begin());
  }
  for (std::size_t i = n; i < n + k; ++i) grown(i, i) = 1.0;
  l_ = std::move(grown);
}

Vector UpdatableCholesky::solve(std::span<const double> b) const {
  return solve_llt(l_, b);
}

PivotedCholesky::PivotedCholesky(Matrix a, double rel_tol) {
  if (a.rows() != a.cols()) throw std::invalid_argument("not square");
  const std::size_t n = a.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  double max_pivot0 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    max_pivot0 = std::max(max_pivot0, a(i, i));
  }
  if (max_pivot0 <= 0.0) {
    rank_ = 0;
    return;
  }
  const double cutoff = rel_tol * max_pivot0;

  for (std::size_t k = 0; k < n; ++k) {
    // Select the largest remaining diagonal entry as pivot.
    std::size_t best = k;
    for (std::size_t i = k + 1; i < n; ++i) {
      if (a(i, i) > a(best, best)) best = i;
    }
    if (a(best, best) <= cutoff) break;
    if (best != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(k, c), a(best, c));
      for (std::size_t r = 0; r < n; ++r) std::swap(a(r, k), a(r, best));
      std::swap(perm_[k], perm_[best]);
    }
    const double piv = std::sqrt(a(k, k));
    a(k, k) = piv;
    for (std::size_t i = k + 1; i < n; ++i) a(i, k) /= piv;
    // Keep the trailing block symmetric: the pivot search swaps whole
    // rows/columns, so both triangles must stay current.
    for (std::size_t j = k + 1; j < n; ++j) {
      const double ljk = a(j, k);
      if (ljk == 0.0) continue;
      for (std::size_t i = j; i < n; ++i) {
        a(i, j) -= a(i, k) * ljk;
        a(j, i) = a(i, j);
      }
    }
    ++rank_;
  }
}

IncrementalCholesky::IncrementalCholesky(double rel_tol) : rel_tol_(rel_tol) {}

bool IncrementalCholesky::try_add(double diag, std::span<const double> cross) {
  if (cross.size() != n_) throw std::invalid_argument("cross size mismatch");
  // Forward substitution L w = cross.
  Vector w(n_, 0.0);
  for (std::size_t i = 0; i < n_; ++i) {
    const double* li = row(i);
    double s = cross[i];
    for (std::size_t k = 0; k < i; ++k) s -= li[k] * w[k];
    w[i] = s / li[i];
  }
  double res2 = diag;
  for (const double wi : w) res2 -= wi * wi;
  last_res2_ = res2;
  if (!(res2 > rel_tol_ * std::max(diag, 1e-300))) return false;

  packed_.insert(packed_.end(), w.begin(), w.end());
  packed_.push_back(std::sqrt(res2));
  ++n_;
  return true;
}

Vector IncrementalCholesky::forward(std::span<const double> b) const {
  if (b.size() != n_) throw std::invalid_argument("rhs size mismatch");
  Vector w(n_, 0.0);
  for (std::size_t i = 0; i < n_; ++i) {
    const double* li = row(i);
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= li[k] * w[k];
    w[i] = s / li[i];
  }
  return w;
}

Vector IncrementalCholesky::backward(std::span<const double> w) const {
  if (w.size() != n_) throw std::invalid_argument("rhs size mismatch");
  Vector x(w.begin(), w.end());
  for (std::size_t ri = n_; ri-- > 0;) {
    x[ri] /= row(ri)[ri];
    const double xi = x[ri];
    for (std::size_t i = 0; i < ri; ++i) x[i] -= row(ri)[i] * xi;
  }
  return x;
}

Vector IncrementalCholesky::solve(std::span<const double> b) const {
  const Vector w = forward(b);
  return backward(w);
}

}  // namespace losstomo::linalg
