#include "linalg/cholesky.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "linalg/qr.hpp"
#include "stats/rng.hpp"

namespace losstomo::linalg {
namespace {

// Random SPD matrix A = B^T B + eps I.
Matrix random_spd(std::size_t n, stats::Rng& rng, double eps = 1e-3) {
  Matrix b(n + 2, n);
  for (std::size_t i = 0; i < b.rows(); ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.gaussian();
  }
  auto g = b.gram();
  for (std::size_t i = 0; i < n; ++i) g(i, i) += eps;
  return g;
}

TEST(Cholesky, FactorReproducesMatrix) {
  stats::Rng rng(5);
  const auto a = random_spd(6, rng);
  const Cholesky chol(a);
  const auto& l = chol.l();
  const auto llt = l.multiply(l.transposed());
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_NEAR(llt(i, j), a(i, j), 1e-9);
    }
  }
}

TEST(Cholesky, SolveRoundTrips) {
  stats::Rng rng(6);
  const auto a = random_spd(8, rng);
  Vector x_true(8);
  for (auto& v : x_true) v = rng.gaussian();
  const auto b = a.multiply(x_true);
  const auto x = Cholesky(a).solve(b);
  EXPECT_LT(max_abs_diff(x, x_true), 1e-7);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_THROW(Cholesky{a}, std::runtime_error);
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(Cholesky{Matrix(2, 3)}, std::invalid_argument);
}

TEST(Cholesky, SqrtDetOfIdentity) {
  EXPECT_DOUBLE_EQ(Cholesky(Matrix::identity(4)).sqrt_det(), 1.0);
}

TEST(RegularizedCholesky, CleanMatrixUsesNoJitter) {
  stats::Rng rng(7);
  const auto a = random_spd(5, rng);
  const RegularizedCholesky chol(a);
  EXPECT_DOUBLE_EQ(chol.jitter_used(), 0.0);
}

TEST(RegularizedCholesky, SingularMatrixGetsJitter) {
  // Rank-1 PSD matrix.
  Matrix a(3, 3);
  const Vector u{1.0, 2.0, 3.0};
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = u[i] * u[j];
  }
  const RegularizedCholesky chol(a);
  EXPECT_GT(chol.jitter_used(), 0.0);
  // The solve should still approximately satisfy the (regularized) system.
  const auto x = chol.solve(Vector{1.0, 2.0, 3.0});
  EXPECT_EQ(x.size(), 3u);
}

TEST(UpdatableCholesky, AppendIdentityMatchesBorderedMatrix) {
  stats::Rng rng(23);
  const std::size_t n = 6, k = 3;
  const Matrix a = random_spd(n, rng);
  UpdatableCholesky upd(a);
  upd.append_identity(k);
  EXPECT_EQ(upd.dim(), n + k);
  // The factor now represents diag(a, I_k) exactly.
  Matrix grown(n + k, n + k);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) grown(i, j) = a(i, j);
  }
  for (std::size_t i = n; i < n + k; ++i) grown(i, i) = 1.0;
  Vector b(n + k);
  for (auto& v : b) v = rng.gaussian();
  EXPECT_EQ(max_abs_diff(upd.solve(b), Cholesky(grown).solve(b)), 0.0);
  // It is the factor a fresh factorization of the grown matrix computes,
  // so a streaming solver may keep it in place of a refactorization.
  EXPECT_EQ(upd.l().data(), Cholesky(grown).l().data());
}

TEST(UpdatableCholesky, AppendIdentityZeroIsNoOp) {
  stats::Rng rng(24);
  const Matrix a = random_spd(4, rng);
  UpdatableCholesky upd(a);
  upd.append_identity(0);
  EXPECT_EQ(upd.dim(), 4u);
}

TEST(UpdatableCholesky, SingularConstructionUsesJitter) {
  Matrix a(3, 3);
  const Vector u{1.0, 2.0, 3.0};
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = u[i] * u[j];
  }
  const UpdatableCholesky upd(a);
  EXPECT_GT(upd.jitter_used(), 0.0);
}

TEST(UpdatableCholesky, SizeMismatchThrows) {
  UpdatableCholesky upd(Matrix::identity(3));
  const Vector wrong{1.0};
  EXPECT_THROW((void)upd.solve(wrong), std::invalid_argument);
}

// The unblocked left-looking constructor the blocked kernel replaced,
// verbatim apart from returning the factor: the reference for the blocked
// contract (same per-entry operation order, same failing pivot).
Matrix unblocked_reference(Matrix a, double min_pivot = 0.0) {
  Matrix l_(std::move(a));
  if (l_.rows() != l_.cols()) throw std::invalid_argument("not square");
  const std::size_t n = l_.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double d = l_(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= l_(j, k) * l_(j, k);
    if (!(d > min_pivot)) throw std::runtime_error("Cholesky: matrix not SPD");
    const double ljj = std::sqrt(d);
    l_(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = l_(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l_(i, k) * l_(j, k);
      l_(i, j) = s / ljj;
    }
    // Zero the strict upper triangle so l() is a clean factor.
    for (std::size_t c = j + 1; c < n; ++c) l_(j, c) = 0.0;
  }
  return l_;
}

// Sizes around the 64-column panel edges, plus the churn overlay (366
// links) and the tree instance (983 links).
constexpr std::size_t kBlockedSizes[] = {1, 63, 64, 65, 127, 129, 366, 983};

// Gram of a 0/1 matrix B = [I; R] with R ~ Bernoulli(0.05): integer
// entries, like the drop-negative normal equations, and SPD.  With
// `copy_to` < n, column `copy_to` of B is replaced by column copy_to / 2,
// which makes the Gram exactly singular with its first zero pivot (in
// exact arithmetic) at column `copy_to`.
Matrix integer_gram(std::size_t n, stats::Rng& rng, std::size_t copy_to) {
  Matrix b(2 * n, n);
  for (std::size_t i = 0; i < n; ++i) b(i, i) = 1.0;
  for (std::size_t i = n; i < 2 * n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.bernoulli(0.05) ? 1 : 0;
  }
  if (copy_to < n) {
    for (std::size_t i = 0; i < 2 * n; ++i) b(i, copy_to) = b(i, copy_to / 2);
  }
  return b.gram();
}

// The drop-negative pivot floor: 1e-12 of the largest diagonal.
double drop_negative_floor(const Matrix& a) {
  double max_diag = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    max_diag = std::max(max_diag, std::fabs(a(i, i)));
  }
  return 1e-12 * max_diag;
}

Matrix leading_block(const Matrix& a, std::size_t k) {
  Matrix out(k, k);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) out(i, j) = a(i, j);
  }
  return out;
}

// Checks the blocked factor of `a` against the unblocked reference.
void expect_matches_reference(const Matrix& a, const std::string& label) {
  const Matrix ref = unblocked_reference(a);
  const Cholesky chol(a);
  const Matrix& l = chol.l();
  ASSERT_EQ(l.rows(), ref.rows()) << label;
  double diff2 = 0.0;
  double ref2 = 0.0;
  std::size_t upper_nonzero = 0;
  for (std::size_t i = 0; i < l.rows(); ++i) {
    for (std::size_t j = 0; j < l.cols(); ++j) {
      const double d = l(i, j) - ref(i, j);
      diff2 += d * d;
      ref2 += ref(i, j) * ref(i, j);
      if (j > i && l(i, j) != 0.0) ++upper_nonzero;
    }
  }
  EXPECT_LE(std::sqrt(diff2), 1e-12 * std::sqrt(ref2)) << label;
  EXPECT_EQ(upper_nonzero, 0u) << label;
}

// Returns the exception message, or "" when the factorization succeeds.
template <typename Factor>
std::string failure_of(Factor&& factor) {
  try {
    factor();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(BlockedCholesky, MatchesUnblockedReferenceOnRandomSpd) {
  stats::Rng rng(91);
  for (const std::size_t n : kBlockedSizes) {
    expect_matches_reference(random_spd(n, rng), "n=" + std::to_string(n));
  }
}

TEST(BlockedCholesky, MatchesUnblockedReferenceOnIntegerGrams) {
  stats::Rng rng(92);
  for (const std::size_t n : kBlockedSizes) {
    expect_matches_reference(integer_gram(n, rng, n),
                             "n=" + std::to_string(n));
  }
}

TEST(BlockedCholesky, FailsAtTheSameColumnAsReference) {
  // Left-looking factorizations fail at column c exactly when the leading
  // c x c block factors and the leading (c+1) x (c+1) block does not.
  // 59 % is where the tree's plain attempt fails; the tree size runs only
  // that case to keep sanitizer builds quick.
  const struct {
    std::size_t n;
    double frac;
  } cases[] = {{366, 0.10}, {366, 0.59}, {366, 0.90}, {983, 0.59}};
  stats::Rng rng(93);
  for (const auto [n, frac] : cases) {
    const auto c = static_cast<std::size_t>(frac * static_cast<double>(n));
    const Matrix a = integer_gram(n, rng, c);
    const double pivot_floor = drop_negative_floor(a);
    const std::string label =
        "n=" + std::to_string(n) + " singular at " + std::to_string(c);
    for (const std::size_t k : {c, c + 1}) {
      const Matrix block = leading_block(a, k);
      const std::string ref =
          failure_of([&] { (void)unblocked_reference(block, pivot_floor); });
      const std::string blocked =
          failure_of([&] { (void)Cholesky(block, pivot_floor); });
      EXPECT_EQ(blocked, ref) << label << ", leading " << k;
      EXPECT_EQ(ref.empty(), k == c) << label << ", leading " << k;
    }
    const std::string ref =
        failure_of([&] { (void)unblocked_reference(a, pivot_floor); });
    EXPECT_EQ(ref, "Cholesky: matrix not SPD") << label;
    EXPECT_EQ(failure_of([&] { (void)Cholesky(a, pivot_floor); }), ref)
        << label;
  }
}

TEST(BlockedCholesky, BitIdenticalAcrossThreadCounts) {
  stats::Rng rng(94);
  for (const std::size_t n : {std::size_t{129}, std::size_t{366},
                              std::size_t{983}}) {
    const Matrix a = integer_gram(n, rng, n);
    const Matrix one = Cholesky(a, 0.0, 1).l();
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      EXPECT_EQ(Cholesky(a, 0.0, threads).l().data(), one.data())
          << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(BlockedCholesky, LadderFactorsAreTheKernelsFactor) {
  // The ladder's retry refills one work buffer and UpdatableCholesky takes
  // the ladder's factor by move: both must equal a fresh factorization of
  // the jittered matrix, bit for bit.
  stats::Rng rng(95);
  const std::size_t n = 200;
  const Matrix a = integer_gram(n, rng, 117);
  const double floor_rel = 1e-12;
  const RegularizedCholesky reg(a, 1e-12, 6, floor_rel, 2);
  ASSERT_EQ(reg.jitter_attempts(), 1);
  Matrix jittered = a;
  for (std::size_t i = 0; i < n; ++i) jittered(i, i) += reg.jitter_used();
  const Cholesky fresh(jittered, drop_negative_floor(a), 1);
  EXPECT_EQ(reg.factor().l().data(), fresh.l().data());
  const UpdatableCholesky upd(a, 1e-12, 6, floor_rel, 8);
  EXPECT_EQ(upd.jitter_attempts(), 1);
  EXPECT_EQ(upd.l().data(), fresh.l().data());
}

TEST(PivotedCholesky, FullRankSpd) {
  stats::Rng rng(8);
  const auto a = random_spd(7, rng);
  EXPECT_EQ(PivotedCholesky(a).rank(), 7u);
}

TEST(PivotedCholesky, DetectsRankOfLowRankPsd) {
  // A = B^T B with B 3 x 6 -> rank 3.
  stats::Rng rng(9);
  Matrix b(3, 6);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 6; ++j) b(i, j) = rng.gaussian();
  }
  EXPECT_EQ(PivotedCholesky(b.gram()).rank(), 3u);
}

TEST(PivotedCholesky, ZeroMatrixRankZero) {
  EXPECT_EQ(PivotedCholesky(Matrix(4, 4)).rank(), 0u);
}

TEST(PivotedCholesky, AgreesWithQrRank) {
  stats::Rng rng(10);
  for (int trial = 0; trial < 5; ++trial) {
    Matrix b(6, 9);
    for (std::size_t i = 0; i < 6; ++i) {
      for (std::size_t j = 0; j < 9; ++j) b(i, j) = rng.gaussian();
    }
    // Rank of B^T B equals rank of B (<= 6).
    EXPECT_EQ(PivotedCholesky(b.gram()).rank(), matrix_rank(b));
  }
}

TEST(IncrementalCholesky, AcceptsIndependentColumns) {
  // Columns of the identity: trivially independent.
  IncrementalCholesky inc;
  EXPECT_TRUE(inc.try_add(1.0, {}));
  const Vector cross1{0.0};
  EXPECT_TRUE(inc.try_add(1.0, cross1));
  EXPECT_EQ(inc.size(), 2u);
}

TEST(IncrementalCholesky, RejectsDependentColumn) {
  // c3 = c1 + c2 in R^3: gram entries follow.
  // c1=(1,0,0), c2=(0,1,0)->after: c3=(1,1,0): <c3,c1>=1, <c3,c2>=1, <c3,c3>=2.
  IncrementalCholesky inc;
  ASSERT_TRUE(inc.try_add(1.0, {}));
  ASSERT_TRUE(inc.try_add(1.0, Vector{0.0}));
  EXPECT_FALSE(inc.try_add(2.0, Vector{1.0, 1.0}));
  EXPECT_EQ(inc.size(), 2u);
  EXPECT_NEAR(inc.last_residual_sq(), 0.0, 1e-12);
}

TEST(IncrementalCholesky, SolveMatchesDirectCholesky) {
  stats::Rng rng(11);
  Matrix c(10, 4);  // column matrix
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 4; ++j) c(i, j) = rng.gaussian();
  }
  const auto g = c.gram();
  IncrementalCholesky inc;
  for (std::size_t j = 0; j < 4; ++j) {
    Vector cross(j);
    for (std::size_t k = 0; k < j; ++k) cross[k] = g(j, k);
    ASSERT_TRUE(inc.try_add(g(j, j), cross));
  }
  Vector b{1.0, -2.0, 0.5, 3.0};
  const auto x_inc = inc.solve(b);
  const auto x_direct = Cholesky(g).solve(b);
  EXPECT_LT(max_abs_diff(x_inc, x_direct), 1e-9);
}

TEST(IncrementalCholesky, CrossSizeMismatchThrows) {
  IncrementalCholesky inc;
  ASSERT_TRUE(inc.try_add(1.0, {}));
  const Vector wrong{0.0, 0.0};
  EXPECT_THROW(inc.try_add(1.0, wrong), std::invalid_argument);
}

TEST(IncrementalCholesky, ForwardBackwardConsistent) {
  IncrementalCholesky inc;
  ASSERT_TRUE(inc.try_add(4.0, {}));
  ASSERT_TRUE(inc.try_add(5.0, Vector{2.0}));
  const Vector b{1.0, 1.0};
  const auto w = inc.forward(b);
  const auto x = inc.backward(w);
  const auto x2 = inc.solve(b);
  EXPECT_LT(max_abs_diff(x, x2), 1e-12);
}

}  // namespace
}  // namespace losstomo::linalg
