#include "core/variance_estimator.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "core/augmented_matrix.hpp"
#include "core/pair_moments.hpp"
#include "io/checkpoint.hpp"
#include "io/checkpoint_tags.hpp"
#include "linalg/nnls.hpp"
#include "linalg/qr.hpp"
#include "util/parallel.hpp"

namespace losstomo::core {

namespace {

// Retained scalar reference of the pairwise accumulation (drop-negative
// policy): every path pair recomputes its sample covariance with an O(m)
// inner loop.  The engine's refresh must match it to last-ulps rounding;
// the parity tests enforce that.
NormalEquations accumulate_pairwise_reference(
    const linalg::SparseBinaryMatrix& r, const stats::CenteredSnapshots& y) {
  const std::size_t np = r.rows();
  const std::size_t nc = r.cols();
  const std::size_t m = y.count();
  NormalEquations sys{linalg::Matrix(nc, nc), linalg::Vector(nc, 0.0)};

  std::vector<std::uint32_t> shared;
  for (std::size_t i = 0; i < np; ++i) {
    const auto ri = r.row(i);
    for (std::size_t j = i; j < np; ++j) {
      linalg::intersect_sorted(ri, r.row(j), shared);
      if (shared.empty()) continue;  // all-zero equation carries nothing
      double cov = 0.0;
      for (std::size_t l = 0; l < m; ++l) {
        const auto row = y.sample(l);
        cov += row[i] * row[j];
      }
      cov /= static_cast<double>(m - 1);
      if (cov < 0.0) {
        ++sys.dropped;
        continue;
      }
      ++sys.used;
      for (const auto a : shared) {
        sys.h[a] += cov;
        for (const auto b : shared) sys.g(a, b) += 1.0;
      }
    }
  }
  return sys;
}

// The centred window samples the keep-all closed form reads: it needs the
// per-link path sums of every snapshot, not S.  Both library sources with a
// window serve them (BatchCovarianceSource, stats::StreamingMoments).
std::span<const double> keep_all_samples(
    const stats::CovarianceSource& source) {
  const auto centered = source.centered_flat();
  if (centered.empty()) {
    throw std::invalid_argument(
        "the keep-all policy needs a covariance source that serves its "
        "centred samples");
  }
  return centered;
}

// Retained scalar reference of the closed form: the seed's sequential
// sweeps (snapshot-outer path-variance accumulation, serial per-link
// sums).  The engine's parallel closed form (augmented_matrix.cpp)
// preserves every per-element summation order, so the parity tests assert
// the two are equal — this function is what makes that assertion
// meaningful.
NormalEquations accumulate_closed_form_reference(
    const linalg::SparseBinaryMatrix& r, const stats::CenteredSnapshots& y) {
  NormalEquations sys;
  const linalg::CoTraversalGram gram(r);
  sys.g = gram.map_to_dense([](double n) { return n * (n + 1.0) / 2.0; }, 1);
  sys.used = pair_count(r.rows());

  const auto column_paths = r.column_lists();
  const std::size_t nc = column_paths.size();
  const std::size_t m = y.count();
  sys.h.assign(nc, 0.0);
  linalg::Vector path_var(y.dim(), 0.0);
  for (std::size_t l = 0; l < m; ++l) {
    const auto row = y.sample(l);
    for (std::size_t i = 0; i < y.dim(); ++i) path_var[i] += row[i] * row[i];
  }
  for (auto& v : path_var) v /= static_cast<double>(m - 1);
  for (std::size_t k = 0; k < nc; ++k) {
    const auto& paths = column_paths[k];
    double full_sum = 0.0;
    for (std::size_t l = 0; l < m; ++l) {
      const auto row = y.sample(l);
      double s = 0.0;
      for (const auto i : paths) s += row[i];
      full_sum += s * s;
    }
    full_sum /= static_cast<double>(m - 1);
    double diag = 0.0;
    for (const auto i : paths) diag += path_var[i];
    sys.h[k] = 0.5 * (full_sum + diag);
  }
  return sys;
}

// Rank-revealing fallback for a drop-negative G left singular (or
// numerically so) by equation drops with every diagonal still positive:
// pivoted Cholesky identifies the well-conditioned link subset, the
// reduced SPD system is solved directly, and the pivot-deficient links are
// pinned to zero variance — the same degradation the dense-QR path gets
// from its pivoted fallback, instead of a jitter-amplified solution on the
// full singular system.  Deterministic: pivot selection depends only on G,
// which the integer maintenance produces exactly.
linalg::Vector solve_rank_revealing(const linalg::Matrix& g,
                                    const linalg::Vector& h,
                                    std::size_t& pinned,
                                    std::size_t threads) {
  const std::size_t n = g.rows();
  const linalg::PivotedCholesky pivoted(g);
  const std::size_t rank = pivoted.rank();
  const auto& perm = pivoted.permutation();
  linalg::Matrix gs(rank, rank);
  linalg::Vector hs(rank);
  for (std::size_t i = 0; i < rank; ++i) {
    hs[i] = h[perm[i]];
    for (std::size_t j = 0; j < rank; ++j) gs(i, j) = g(perm[i], perm[j]);
  }
  const linalg::RegularizedCholesky chol(gs, 1e-12, 6, 0.0, threads);
  const auto vs = chol.solve(hs);
  linalg::Vector v(n, 0.0);
  for (std::size_t i = 0; i < rank; ++i) v[perm[i]] = vs[i];
  pinned = n - rank;
  return v;
}

VarianceEstimate finish(linalg::Vector v, VarianceEstimate partial) {
  for (auto& value : v) {
    if (value < 0.0) {
      value = 0.0;
      ++partial.negative_clamped;
    }
  }
  partial.v = std::move(v);
  return partial;
}

// The scalar reference system (VarianceOptions::use_reference_impl).
NormalEquations reference_system(const linalg::SparseBinaryMatrix& r,
                                 const stats::CenteredSnapshots& centered,
                                 bool drop_negative) {
  return drop_negative ? accumulate_pairwise_reference(r, centered)
                       : accumulate_closed_form_reference(r, centered);
}

// Paper-exact dense path: materialise A, drop rows whose packed covariance
// is negative (when the policy says so), Householder QR.  `sigma_full` is
// the packed pair-covariance vector aligned with build_augmented_matrix.
VarianceEstimate dense_qr_estimate(const linalg::SparseBinaryMatrix& r,
                                   const linalg::Vector& sigma_full,
                                   bool drop_negative,
                                   const VarianceOptions& options) {
  const std::size_t nc = r.cols();
  // All-zero rows (path pairs with no shared link) carry no equation and
  // are excluded up front, mirroring the pairwise accumulation.
  const auto a_full =
      build_augmented_matrix(r, options.dense_entry_cap, options.threads);
  std::vector<std::size_t> keep;
  std::size_t dropped = 0;
  keep.reserve(sigma_full.size());
  for (std::size_t row = 0; row < sigma_full.size(); ++row) {
    const auto arow = a_full.row(row);
    const bool informative =
        std::any_of(arow.begin(), arow.end(), [](double x) { return x != 0.0; });
    if (!informative) continue;
    if (drop_negative && sigma_full[row] < 0.0) {
      ++dropped;
      continue;
    }
    keep.push_back(row);
  }
  linalg::Matrix a(keep.size(), nc);
  linalg::Vector sigma(keep.size());
  util::parallel_for(
      keep.size(), 64,
      [&](std::size_t out_begin, std::size_t out_end) {
        for (std::size_t out = out_begin; out < out_end; ++out) {
          const auto src = a_full.row(keep[out]);
          std::copy(src.begin(), src.end(), a.row(out).begin());
          sigma[out] = sigma_full[keep[out]];
        }
      },
      options.threads);
  VarianceEstimate est;
  est.method = "dense-qr";
  est.equations_used = keep.size();
  est.equations_dropped = dropped;
  const linalg::HouseholderQr qr(a);
  if (qr.full_column_rank()) {
    return finish(qr.solve(sigma), std::move(est));
  }
  // Dropping rows can (rarely) lose rank; fall back to the basic
  // rank-revealing solution.
  est.method = "dense-qr(pivoted-fallback)";
  return finish(linalg::PivotedQr(a).solve_basic(sigma), std::move(est));
}

// Batch estimation is the streaming engine with no history: one refresh
// (or an adopted reference system), one solve.  The estimate carries the
// engine's method string without its "streaming-" prefix.
VarianceEstimate solve_once(StreamingNormalEquations& equations) {
  VarianceEstimate est = equations.solve();
  est.method.erase(0, std::string_view("streaming-").size());
  return est;
}

void check_snapshots(const linalg::SparseBinaryMatrix& r,
                     const stats::SnapshotMatrix& y) {
  if (y.dim() != r.rows()) {
    throw std::invalid_argument("snapshot dimension != path count");
  }
  if (y.count() < 2) throw std::invalid_argument("need >= 2 snapshots");
}

}  // namespace

bool resolve_negative_policy(const VarianceOptions& options, std::size_t np) {
  switch (options.negatives) {
    case NegativeCovariancePolicy::kDrop:
      return true;
    case NegativeCovariancePolicy::kKeep:
      return false;
    case NegativeCovariancePolicy::kAuto:
    default:
      return np <= options.pairwise_path_cap;
  }
}

NormalEquations build_normal_equations(const linalg::SparseBinaryMatrix& r,
                                       const stats::SnapshotMatrix& y,
                                       const VarianceOptions& options) {
  check_snapshots(r, y);
  const stats::CenteredSnapshots centered(y);
  if (options.use_reference_impl) {
    const bool drop_negative = resolve_negative_policy(options, r.rows());
    StreamingNormalEquations equations(
        reference_system(r, centered, drop_negative), options, drop_negative);
    return std::move(equations).system();
  }
  return build_normal_equations(
      r, stats::BatchCovarianceSource(centered, options.threads), options);
}

NormalEquations build_normal_equations(const linalg::SparseBinaryMatrix& r,
                                       const stats::CovarianceSource& source,
                                       const VarianceOptions& options) {
  StreamingNormalEquations equations(r, options);
  equations.refresh(source);
  return std::move(equations).system();
}

VarianceEstimate estimate_link_variances(const linalg::SparseBinaryMatrix& r,
                                         const stats::SnapshotMatrix& y,
                                         const VarianceOptions& options) {
  check_snapshots(r, y);
  const stats::CenteredSnapshots centered(y);
  if (!options.use_reference_impl) {
    return estimate_link_variances(
        r, stats::BatchCovarianceSource(centered, options.threads), options);
  }
  const bool drop_negative = resolve_negative_policy(options, r.rows());
  if (options.method == VarianceMethod::kDenseQr) {
    return dense_qr_estimate(r, packed_covariances(centered), drop_negative,
                             options);
  }
  StreamingNormalEquations equations(
      reference_system(r, centered, drop_negative), options, drop_negative);
  return solve_once(equations);
}

VarianceEstimate estimate_link_variances(const linalg::SparseBinaryMatrix& r,
                                         const stats::CovarianceSource& source,
                                         const VarianceOptions& options) {
  if (options.method == VarianceMethod::kDenseQr) {
    if (source.dim() != r.rows()) {
      throw std::invalid_argument("source dimension != path count");
    }
    if (source.count() < 2) throw std::invalid_argument("need >= 2 snapshots");
    return dense_qr_estimate(r, packed_covariances(source.matrix()),
                             resolve_negative_policy(options, r.rows()),
                             options);
  }
  StreamingNormalEquations equations(r, options);
  equations.refresh(source);
  return solve_once(equations);
}

StreamingNormalEquations::StreamingNormalEquations(
    const linalg::SparseBinaryMatrix& r, const VarianceOptions& options)
    : StreamingNormalEquations(
          r, options,
          resolve_negative_policy(options, r.rows())
              ? std::make_shared<SharingPairStore>(
                    SharingPairStore::build(r, options.threads))
              : nullptr) {}

StreamingNormalEquations::StreamingNormalEquations(
    const linalg::SparseBinaryMatrix& r, const VarianceOptions& options,
    std::shared_ptr<SharingPairStore> store)
    : options_(options),
      np_(r.rows()),
      nc_(r.cols()),
      drop_negative_(resolve_negative_policy(options, r.rows())),
      pairs_(std::move(store)) {
  sys_.g = linalg::Matrix(nc_, nc_);
  sys_.h.assign(nc_, 0.0);
  if (!drop_negative_) {
    if (pairs_) {
      throw std::invalid_argument(
          "a pair store requires the drop-negative policy");
    }
    // Keep-all: G depends only on the routing matrix.
    const linalg::CoTraversalGram gram(r);
    sys_.g = augmented_normal_matrix(gram, options_.threads);
    sys_.used = pair_count(np_);
    column_paths_ = r.column_lists();
    return;
  }
  if (!pairs_ || pairs_->path_count() != np_) {
    throw std::invalid_argument("pair store does not match the routing matrix");
  }
  // Every pair starts "dropped", so every link starts identity-pinned:
  // G = I, and the first refresh folds the kept pairs in (and the pins
  // out) through the flip path.
  pair_kept_.assign(pairs_->pair_count(), 0);
  coverage_.assign(nc_, 0);
  pins_active_ = nc_;
  for (std::size_t a = 0; a < nc_; ++a) sys_.g(a, a) = 1.0;
}

StreamingNormalEquations::StreamingNormalEquations(NormalEquations sys,
                                                   const VarianceOptions& options,
                                                   bool drop_negative)
    : options_(options),
      nc_(sys.g.rows()),
      drop_negative_(drop_negative),
      refreshed_(true),
      sys_(std::move(sys)) {
  if (!drop_negative_) return;
  // A link no kept equation covers has an all-zero G row: identity-pin it,
  // as apply_flips pins a link whose coverage reaches 0.
  for (std::size_t a = 0; a < nc_; ++a) {
    if (sys_.g(a, a) == 0.0) {
      sys_.g(a, a) = 1.0;
      ++pins_active_;
    }
  }
}

StreamingNormalEquations::~StreamingNormalEquations() = default;

// Folds the flipped pairs into G.  The counts are integers, so the order
// does not matter and the result exactly matches a from-scratch
// accumulation over the current kept set.
void StreamingNormalEquations::apply_flips(
    const std::vector<std::size_t>& flips) {
  for (const std::size_t p : flips) {
    pair_kept_[p] ^= 1;
    const bool now_kept = pair_kept_[p] != 0;
    const double sign = now_kept ? 1.0 : -1.0;
    const auto links = pairs_->links(p);
    for (const auto a : links) {
      for (const auto b : links) sys_.g(a, b) += sign;
    }
    // Kept-pair coverage per link: a link crossing zero coverage enters or
    // leaves the identity-pinned state, a unit step on its diagonal.
    for (const auto a : links) {
      if (now_kept) {
        if (coverage_[a]++ == 0) {
          sys_.g(a, a) -= 1.0;
          --pins_active_;
        }
      } else if (--coverage_[a] == 0) {
        sys_.g(a, a) += 1.0;
        ++pins_active_;
      }
    }
  }
  pending_flips_ += flips.size();
}

void StreamingNormalEquations::add_paths(const linalg::SparseBinaryMatrix& r,
                                         std::size_t count) {
  if (!drop_negative_) {
    throw std::logic_error(
        "path churn requires the drop-negative streaming configuration");
  }
  if (count == 0) {
    throw std::invalid_argument("add_paths needs count >= 1");
  }
  if (r.rows() != np_ + count) {
    throw std::invalid_argument(
        "add_paths: appended row count does not match the routing matrix");
  }
  if (r.cols() != nc_) {
    throw std::invalid_argument(
        "add_paths: link universe mismatch (call grow_links first)");
  }
  np_ = r.rows();
  pairs_->add_rows(r);
  // New pairs join dropped; they enter G through refresh() when ready.
  pair_kept_.resize(pairs_->pair_count(), 0);
}

void StreamingNormalEquations::grow_links(std::size_t count) {
  if (!drop_negative_) {
    throw std::logic_error(
        "link growth requires the drop-negative streaming configuration");
  }
  if (count == 0) return;
  const std::size_t nc = nc_ + count;
  // Fresh links have no kept pair equation, so they join identity-pinned:
  // G grows to diag(G, I) exactly.
  linalg::Matrix g(nc, nc);
  for (std::size_t i = 0; i < nc_; ++i) {
    const auto src = sys_.g.row(i);
    std::copy(src.begin(), src.end(), g.row(i).begin());
  }
  for (std::size_t a = nc_; a < nc; ++a) g(a, a) = 1.0;
  sys_.g = std::move(g);
  sys_.h.resize(nc, 0.0);
  coverage_.resize(nc, 0);
  pins_active_ += count;
  nc_ = nc;
  links_grown_ += count;
  if (factor_ && factor_->jitter_used() > 0.0) {
    // A jittered factor represents G + j*I; its identity border would
    // mismatch the exact unit diagonal of the grown G.  Rebuild instead.
    factor_.reset();
  } else if (factor_) {
    // Bordered growth: the identity border extends the factor exactly, to
    // the factor the ladder's plain attempt computes for diag(G, I).
    factor_->append_identity(count);
  }
}

const NormalEquations& StreamingNormalEquations::refresh(
    const stats::CovarianceSource& source,
    std::span<const std::uint8_t> ready) {
  if (source.dim() != np_) {
    throw std::invalid_argument("source dimension != path count");
  }
  if (source.count() < 2) throw std::invalid_argument("need >= 2 snapshots");
  if (!ready.empty() && ready.size() != np_) {
    throw std::invalid_argument("readiness mask size != path count");
  }
  if (!drop_negative_ &&
      std::find(ready.begin(), ready.end(), 0) != ready.end()) {
    throw std::invalid_argument("the keep-all policy reads every path");
  }
  refreshed_ = true;

  if (!drop_negative_) {
    // The closed form on the source's window (augmented_normal_rhs).
    sys_.h = augmented_normal_rhs(keep_all_samples(source), source.count(),
                                  column_paths_, options_.threads);
    return sys_;
  }

  // Where each pair's covariance comes from:
  //  * an aligned pair-indexed source (core::PairMoments on this very
  //    store): an O(1) array read — no np x np matrix anywhere in the tick;
  //  * S(i, j), when the source keeps S (the streaming accumulators) or
  //    serves a window over which sharing pairs are at least 1/8 of all
  //    pairs, so one blocked S beats an O(m) product per pair;
  //  * otherwise, from a window (a batch window over sparse sharing), the
  //    O(m) product of the two paths' centred columns — the scalar
  //    reference's sum — and from any other source its covariance(i, j).
  const auto* pair_source = dynamic_cast<const PairMoments*>(&source);
  if (pair_source && pair_source->store() != pairs_.get()) {
    pair_source = nullptr;
  }
  const std::span<const double> centered =
      pair_source ? std::span<const double>{} : source.centered_flat();
  const bool read_s =
      !pair_source &&
      (source.matrix_is_cheap() ||
       (!centered.empty() && 8 * pairs_->pair_count() >= pair_count(np_)));
  const linalg::Matrix* s = read_s ? &source.matrix() : nullptr;
  const std::span<const double> pair_values =
      pair_source ? pair_source->pair_values() : std::span<const double>{};
  // cov = values[p] / (count - 1): dividing here keeps the arithmetic
  // bit-identical to PairMoments::pair_covariance.
  const double pair_denom = static_cast<double>(source.count() - 1);
  const std::size_t window = source.count();
  // Path churn: a retired or warming path is not ready, so its kept pairs
  // flip out of G here, exactly as a joining path's pairs flip in once
  // warm.
  const bool all_ready = ready.empty();

  struct Partial {
    linalg::Vector h;
    std::size_t used = 0;
    std::size_t dropped = 0;
    std::vector<std::size_t> flips;
  };
  Partial identity;
  identity.h.assign(nc_, 0.0);
  // Pairs are scanned in chunks whose boundaries depend only on the pair
  // count; partials reduce in ascending chunk order, so h is bit-identical
  // at any thread count and `flips` comes back in ascending pair order.
  Partial acc = util::parallel_reduce(
      pairs_->pair_count(), 8192, identity,
      [&](Partial& part, std::size_t begin, std::size_t end) {
        pairs_->for_pairs(
            begin, end,
            [&](std::size_t p, std::uint32_t i, std::uint32_t j,
                std::span<const std::uint32_t> links) {
              if (!all_ready && (!ready[i] || !ready[j])) {
                // A retired or warming path's pair: out of the system
                // (neither used nor dropped — the counts of a one-shot
                // refresh over the ready path subset).
                if (pair_kept_[p]) part.flips.push_back(p);
                return;
              }
              double cov;
              if (pair_source) {
                cov = pair_values[p] / pair_denom;
              } else if (s) {
                cov = (*s)(i, j);
              } else if (centered.empty()) {
                cov = source.covariance(i, j);
              } else {
                cov = 0.0;
                const double* pi = centered.data() + i;
                const double* pj = centered.data() + j;
                for (std::size_t l = 0; l < window; ++l, pi += np_, pj += np_) {
                  cov += *pi * *pj;
                }
                cov /= pair_denom;
              }
              const bool kept = !(cov < 0.0);
              if (kept != (pair_kept_[p] != 0)) part.flips.push_back(p);
              if (!kept) {
                ++part.dropped;
                return;
              }
              ++part.used;
              for (const auto link : links) part.h[link] += cov;
            });
      },
      [](Partial& into, const Partial& part) {
        for (std::size_t k = 0; k < into.h.size(); ++k) into.h[k] += part.h[k];
        into.used += part.used;
        into.dropped += part.dropped;
        into.flips.insert(into.flips.end(), part.flips.begin(),
                          part.flips.end());
      },
      options_.threads);

  apply_flips(acc.flips);
  sys_.h = std::move(acc.h);
  sys_.used = acc.used;
  sys_.dropped = acc.dropped;
  return sys_;
}

VarianceEstimate StreamingNormalEquations::solve() {
  if (!refreshed_) {
    throw std::logic_error("StreamingNormalEquations::solve before refresh");
  }
  const VarianceMethod method = options_.method;
  if (method == VarianceMethod::kDenseQr) {
    throw std::invalid_argument(
        "StreamingNormalEquations does not support kDenseQr; use the batch "
        "path");
  }
  VarianceEstimate est;
  est.equations_used = sys_.used;
  est.equations_dropped = sys_.dropped;
  est.links_pinned = pins_active_;

  if (method == VarianceMethod::kNnls) {
    est.method = drop_negative_ ? "streaming-nnls(drop-negative)"
                                : "streaming-nnls(keep-all)";
    auto result = linalg::nnls_gram(sys_.g, sys_.h);
    return finish(std::move(result.x), std::move(est));
  }

  est.method = drop_negative_ ? "streaming-normal(drop-negative)"
                              : "streaming-normal(keep-all)";
  if (!factor_ || pending_flips_ > 0) refactorize();
  // Zero-coverage links are identity-pinned inside G, so a factor that
  // needed an *amplified* jitter (ladder rung >=
  // rank_revealing_min_attempts) means equation drops left the live block
  // rank-deficient: degrade like the dense-QR pivoted fallback — pivoted
  // rank-revealing solve, deficient links pinned — instead of amplifying
  // the jittered solution.
  if (drop_negative_ && options_.rank_revealing_min_attempts > 0 &&
      factor_->jitter_attempts() >= options_.rank_revealing_min_attempts) {
    est.method = "streaming-normal(drop-negative,rank-revealing)";
    std::size_t extra = 0;
    auto v = solve_rank_revealing(sys_.g, sys_.h, extra, options_.threads);
    est.links_pinned += extra;
    return finish(std::move(v), std::move(est));
  }
  est.jitter_used = factor_->jitter_used();
  return finish(factor_->solve(sys_.h), std::move(est));
}

void StreamingNormalEquations::refactorize() {
  // Drop-negative G is integer-exact, so an exactly-singular system can
  // compute a rounding-level "positive" pivot and sail through a plain
  // factorization; the relative pivot floor forces such systems into the
  // jitter ladder (and from there the rank-revealing fallback).
  factor_.emplace(sys_.g, 1e-12, 6, drop_negative_ ? 1e-12 : 0.0,
                  options_.threads);
  factor_attempts_ += static_cast<std::size_t>(factor_->jitter_attempts()) + 1;
  pending_flips_ = 0;
  ++refactorizations_;
}

void StreamingNormalEquations::save_state(
    io::CheckpointWriter& writer) const {
  writer.begin_section(io::tags::kNormalEquations);
  writer.usize(np_);
  writer.usize(nc_);
  writer.boolean(drop_negative_);
  writer.boolean(refreshed_);
  // Keep-all G is a pure function of the routing: the constructor of the
  // restore target has already assembled it.
  if (drop_negative_) writer.doubles(sys_.g.data());
  writer.doubles(sys_.h);
  writer.usize(sys_.used);
  writer.usize(sys_.dropped);
  writer.boolean(factor_.has_value());
  if (factor_) {
    writer.doubles(factor_->l().data());
    writer.f64(factor_->jitter_used());
    writer.u32(static_cast<std::uint32_t>(factor_->jitter_attempts()));
  }
  writer.usize(pending_flips_);
  writer.usize(refactorizations_);
  writer.usize(factor_attempts_);
  writer.usize(links_grown_);
  if (drop_negative_) {
    writer.u8s(pair_kept_);
    writer.u32s(coverage_);
    writer.usize(pins_active_);
  }
  writer.end_section();
}

void StreamingNormalEquations::restore_state(io::CheckpointReader& reader) {
  reader.expect_section(io::tags::kNormalEquations);
  const std::size_t np = reader.usize();
  const std::size_t nc = reader.usize();
  const bool drop_negative = reader.boolean();
  if (np != np_ || nc != nc_ || drop_negative != drop_negative_) {
    throw io::CheckpointError(
        io::CheckpointErrorKind::kMismatch,
        "normal equations shape " + std::to_string(np) + "x" +
            std::to_string(nc) + (drop_negative ? " drop" : " keep") +
            ", expected " + std::to_string(np_) + "x" + std::to_string(nc_) +
            (drop_negative_ ? " drop" : " keep"));
  }
  // Everything parses into locals first; members only move in at the end
  // (no-partial-state guarantee).
  const bool refreshed = reader.boolean();
  std::vector<double> g;
  if (drop_negative_) g = reader.doubles();
  std::vector<double> h = reader.doubles();
  const std::size_t used = reader.usize();
  const std::size_t dropped = reader.usize();
  const bool has_factor = reader.boolean();
  std::optional<linalg::RegularizedCholesky> factor;
  if (has_factor) {
    std::vector<double> l = reader.doubles();
    const double jitter_used = reader.f64();
    const int jitter_attempts = static_cast<int>(reader.u32());
    if (l.size() != nc_ * nc_) {
      throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                                "cached factor has the wrong shape");
    }
    linalg::Matrix lm(nc_, nc_);
    std::copy(l.begin(), l.end(), lm.data().begin());
    factor = linalg::RegularizedCholesky::from_state(
        std::move(lm), jitter_used, jitter_attempts);
  }
  const std::size_t pending_flips = reader.usize();
  const std::size_t refactorizations = reader.usize();
  const std::size_t factor_attempts = reader.usize();
  const std::size_t links_grown = reader.usize();
  if ((drop_negative_ && g.size() != nc_ * nc_) || h.size() != nc_) {
    throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                              "normal equations G/h have the wrong shape");
  }
  std::vector<std::uint8_t> pair_kept;
  std::vector<std::uint32_t> coverage;
  std::size_t pins_active = 0;
  if (drop_negative_) {
    pair_kept = reader.u8s();
    coverage = reader.u32s();
    pins_active = reader.usize();
    if (pair_kept.size() != pairs_->pair_count() || coverage.size() != nc_ ||
        pins_active > nc_) {
      throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                                "kept-pair/pin state is inconsistent");
    }
  }
  reader.end_section();

  refreshed_ = refreshed;
  std::copy(g.begin(), g.end(), sys_.g.data().begin());  // empty under keep-all
  sys_.h = std::move(h);
  sys_.used = used;
  sys_.dropped = dropped;
  factor_ = std::move(factor);
  pending_flips_ = pending_flips;
  refactorizations_ = refactorizations;
  factor_attempts_ = factor_attempts;
  links_grown_ = links_grown;
  if (drop_negative_) {
    pair_kept_ = std::move(pair_kept);
    coverage_ = std::move(coverage);
    pins_active_ = pins_active;
  }
}

}  // namespace losstomo::core
