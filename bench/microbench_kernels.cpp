// Microbenchmark of the compute-kernel layer: scalar (seed) vs blocked vs
// blocked+parallel for the Phase-1 covariance-system build, the dense
// gram/GEMM kernels and the Cholesky factorization of the drop-negative
// normal matrix G.  This is the perf-trajectory harness for the kernel
// work: run with `--json BENCH_kernels.json` and diff the recorded numbers
// across PRs.
//
//   build/bench_microbench_kernels [instance=tree|mesh] [nodes=1300] [m=384]
//                                  [hosts=32] [reps=3] [--json <path>]
//
// The headline figures are normal_build_speedup_1t (the seed's per-pair
// scalar accumulation vs the blocked single-thread path; target >= 5x on a
// >= 500-path instance) and normal_build_parallel_scaling (blocked 1-thread
// vs all-threads).  The bench exits with status 1 when the blocked Cholesky
// factor departs from the unblocked reference by more than 1e-12
// (cholesky_max_rel_diff, max-norm relative to the reference).
#include <algorithm>
#include <cmath>

#include "common.hpp"
#include "core/variance_estimator.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/kernels.hpp"
#include "util/parallel.hpp"

namespace {

using namespace losstomo;

// Best-of-reps wall time of fn(); the returned checksum feeds a sink so the
// optimizer cannot elide any rep.
template <typename Fn>
double time_best(std::size_t reps, double& sink, Fn&& fn) {
  double best = 1e300;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    util::Timer timer;
    sink += fn();
    best = std::min(best, timer.seconds());
  }
  return best;
}

double checksum(const linalg::Matrix& m) {
  double acc = 0.0;
  for (const double v : m.data()) acc += v;
  return acc;
}

// The seed's scalar covariance pass: one O(m) inner loop per path pair
// (stats::CenteredSnapshots::covariance), exactly what accumulate_pairwise
// ran before the blocked kernels.
double scalar_packed_covariances(const stats::CenteredSnapshots& y) {
  double acc = 0.0;
  for (std::size_t i = 0; i < y.dim(); ++i) {
    for (std::size_t j = i; j < y.dim(); ++j) acc += y.covariance(i, j);
  }
  return acc;
}

// The seed's naive gram triple loop (pre-kernel Matrix::gram).
double naive_gram(const linalg::Matrix& a, linalg::Matrix& g) {
  g = linalg::Matrix(a.cols(), a.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto rr = a.row(r);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double v = rr[i];
      if (v == 0.0) continue;
      for (std::size_t j = i; j < a.cols(); ++j) g(i, j) += v * rr[j];
    }
  }
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t j = 0; j < i; ++j) g(i, j) = g(j, i);
  }
  return checksum(g);
}

// The unblocked left-looking Cholesky that linalg::Cholesky replaced: one
// dependent subtraction chain per entry.  The blocked kernel keeps its
// per-entry operation order, so the two factors agree to rounding.
linalg::Matrix unblocked_cholesky(linalg::Matrix l, double min_pivot) {
  const std::size_t n = l.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double d = l(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= l(j, k) * l(j, k);
    if (!(d > min_pivot)) throw std::runtime_error("Cholesky: matrix not SPD");
    const double ljj = std::sqrt(d);
    l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = l(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s / ljj;
    }
    for (std::size_t c = j + 1; c < n; ++c) l(j, c) = 0.0;
  }
  return l;
}

// max |a_ij - b_ij| / max |b_ij|.
double max_rel_diff(const linalg::Matrix& a, const linalg::Matrix& b) {
  double diff = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    diff = std::max(diff, std::fabs(a.data()[i] - b.data()[i]));
    scale = std::max(scale, std::fabs(b.data()[i]));
  }
  return scale > 0.0 ? diff / scale : diff;
}

}  // namespace

namespace {

// Synthetic Gaussian observations through the routing matrix, so timings
// depend only on problem shape, not simulator state.
stats::SnapshotMatrix synthetic_snapshots(const linalg::SparseBinaryMatrix& r,
                                          std::size_t m, stats::Rng& rng) {
  stats::SnapshotMatrix y(r.rows(), m);
  linalg::Vector x(r.cols());
  for (std::size_t l = 0; l < m; ++l) {
    for (std::size_t k = 0; k < r.cols(); ++k) {
      x[k] = -0.02 + 0.03 * rng.gaussian();
    }
    const auto yl = r.multiply(x);
    std::copy(yl.begin(), yl.end(), y.sample(l).begin());
  }
  return y;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto nodes = args.get_size("nodes", 1300);
  const auto hosts = args.get_size("hosts", 32);
  const auto instance = args.get_string("instance", "tree");
  const auto m = args.get_size("m", 384);
  const auto reps = args.get_size("reps", 3);
  const auto json_path = args.get_string("json", "");
  // `threads=1,2,4` re-records every figure per worker count in one run
  // (keys suffixed _t<N>); the default keeps the unsuffixed key names.
  const bench::ThreadSweep sweep(args);
  args.finish();

  // A >= 500-path instance.  The default single-beacon-style tree has dense
  // pair sharing (most path pairs share links near the root), which is the
  // regime where the seed's per-pair O(m) covariance loop dominated;
  // `instance=mesh` gives a sparse-sharing Waxman overlay where the seed's
  // skip already avoided most covariances (the kernels must not regress
  // there).
  stats::Rng rng(41);
  auto inst = instance == "mesh"
                  ? bench::from_topology(
                        topology::make_waxman(
                            {.nodes = nodes, .links_per_node = 2}, rng),
                        "Waxman", hosts)
                  : bench::make_tree_instance(nodes, 8, 41);
  const auto& r = inst.matrix().matrix();
  const std::size_t np = r.rows();
  const std::size_t nc = r.cols();

  const stats::SnapshotMatrix y = synthetic_snapshots(r, m, rng);
  const stats::CenteredSnapshots centered(y);
  linalg::Matrix dense(512, 512);
  for (auto& v : dense.data()) v = rng.gaussian();

  std::cout << "microbench_kernels: instance=" << inst.name << " np=" << np
            << " links=" << nc << " m=" << m << "\n\n";

  bench::JsonReport report;
  report.set("bench", std::string("microbench_kernels"));
  report.set("instance", inst.name);
  report.set("np", np);
  report.set("nc", nc);
  report.set("m", m);

  double worst_chol_diff = 0.0;
  sweep.run([&](std::size_t sweep_threads, const std::string& suffix) {
    const std::size_t threads =
        sweep_threads == 0 ? util::default_threads() : sweep_threads;
    double sink = 0.0;

    // --- covariance matrix S = Yc^T Yc / (m-1) -----------------------------
    const double cov_scalar = time_best(
        reps, sink, [&] { return scalar_packed_covariances(centered); });
    const double cov_blocked = time_best(reps, sink, [&] {
      return checksum(stats::covariance_matrix(centered, 1));
    });
    const double cov_parallel = time_best(reps, sink, [&] {
      return checksum(stats::covariance_matrix(centered, threads));
    });

    // --- full normal-equation build (covariance system, drop-negative) ----
    core::VarianceOptions scalar_opts;
    scalar_opts.negatives = core::NegativeCovariancePolicy::kDrop;
    scalar_opts.use_reference_impl = true;
    core::VarianceOptions blocked_opts = scalar_opts;
    blocked_opts.use_reference_impl = false;
    blocked_opts.threads = 1;
    core::VarianceOptions parallel_opts = blocked_opts;
    parallel_opts.threads = threads;

    const double build_scalar = time_best(reps, sink, [&] {
      return checksum(core::build_normal_equations(r, y, scalar_opts).g);
    });
    const double build_blocked = time_best(reps, sink, [&] {
      return checksum(core::build_normal_equations(r, y, blocked_opts).g);
    });
    const double build_parallel = time_best(reps, sink, [&] {
      return checksum(core::build_normal_equations(r, y, parallel_opts).g);
    });

    // --- dense gram / GEMM kernels ----------------------------------------
    linalg::Matrix scratch;
    const double gram_naive_s =
        time_best(reps, sink, [&] { return naive_gram(dense, scratch); });
    const double gram_blocked_s = time_best(reps, sink, [&] {
      return checksum(linalg::blocked_gram(dense, 1.0, 1));
    });
    const double gram_parallel_s = time_best(reps, sink, [&] {
      return checksum(linalg::blocked_gram(dense, 1.0, threads));
    });

    // --- Cholesky of the drop-negative G ----------------------------------
    // The matrix the solve factors: links no kept equation covers come
    // back identity-pinned from build_normal_equations, and the jitter
    // ladder's successful rung is applied, with the drop-negative pivot
    // floor.
    linalg::Matrix g = core::build_normal_equations(r, y, blocked_opts).g;
    double max_diag = 0.0;
    for (std::size_t k = 0; k < nc; ++k) max_diag = std::max(max_diag, g(k, k));
    const double min_pivot = 1e-12 * max_diag;
    const linalg::RegularizedCholesky ladder(g, 1e-12, 6, 1e-12, 1);
    for (std::size_t k = 0; k < nc; ++k) g(k, k) += ladder.jitter_used();
    linalg::Matrix chol_ref;
    const double chol_unblocked = time_best(reps, sink, [&] {
      chol_ref = unblocked_cholesky(g, min_pivot);
      return chol_ref(nc - 1, nc - 1);
    });
    linalg::Matrix chol_l;
    const double chol_blocked = time_best(reps, sink, [&] {
      chol_l = linalg::Cholesky(g, min_pivot, 1).l();
      return chol_l(nc - 1, nc - 1);
    });
    const double chol_parallel = time_best(reps, sink, [&] {
      return linalg::Cholesky(g, min_pivot, threads).l()(nc - 1, nc - 1);
    });
    const double chol_diff = max_rel_diff(chol_l, chol_ref);
    worst_chol_diff = std::max(worst_chol_diff, chol_diff);

    util::Table table({"kernel", "scalar s", "blocked 1t s", "parallel s",
                       "speedup 1t", "scaling"});
    const auto add = [&](const std::string& name, double scalar,
                         double blocked, double parallel) {
      table.add_row({name, util::Table::num(scalar, 4),
                     util::Table::num(blocked, 4),
                     util::Table::num(parallel, 4),
                     util::Table::num(scalar / blocked, 2),
                     util::Table::num(blocked / parallel, 2)});
    };
    add("covariance S", cov_scalar, cov_blocked, cov_parallel);
    add("normal-eq build", build_scalar, build_blocked, build_parallel);
    add("gram 512^2", gram_naive_s, gram_blocked_s, gram_parallel_s);
    add("cholesky G", chol_unblocked, chol_blocked, chol_parallel);
    std::cout << "threads=" << threads << "\n";
    table.print(std::cout);
    std::cout << "cholesky G: ladder rung " << ladder.jitter_attempts()
              << ", max relative difference to the unblocked factor "
              << chol_diff << "\n(sink " << sink << ")\n\n";

    report.set("threads" + suffix, threads);
    report.set("cov_scalar_seconds" + suffix, cov_scalar);
    report.set("cov_blocked_1t_seconds" + suffix, cov_blocked);
    report.set("cov_parallel_seconds" + suffix, cov_parallel);
    report.set("cov_speedup_1t" + suffix, cov_scalar / cov_blocked);
    report.set("normal_build_scalar_seconds" + suffix, build_scalar);
    report.set("normal_build_blocked_1t_seconds" + suffix, build_blocked);
    report.set("normal_build_parallel_seconds" + suffix, build_parallel);
    report.set("normal_build_speedup_1t" + suffix,
               build_scalar / build_blocked);
    report.set("normal_build_parallel_scaling" + suffix,
               build_blocked / build_parallel);
    report.set("gram_naive_seconds" + suffix, gram_naive_s);
    report.set("gram_blocked_1t_seconds" + suffix, gram_blocked_s);
    report.set("gram_parallel_seconds" + suffix, gram_parallel_s);
    report.set("gram_speedup_1t" + suffix, gram_naive_s / gram_blocked_s);
    report.set("cholesky_jitter_attempts" + suffix,
               static_cast<std::size_t>(ladder.jitter_attempts()));
    report.set("cholesky_unblocked_seconds" + suffix, chol_unblocked);
    report.set("cholesky_blocked_1t_seconds" + suffix, chol_blocked);
    report.set("cholesky_parallel_seconds" + suffix, chol_parallel);
    report.set("cholesky_speedup_1t" + suffix, chol_unblocked / chol_blocked);
    report.set("cholesky_parallel_scaling" + suffix,
               chol_blocked / chol_parallel);
    report.set("cholesky_max_rel_diff" + suffix, chol_diff);
  });
  report.write(json_path);
  if (!(worst_chol_diff <= 1e-12)) {
    std::cerr << "cholesky_max_rel_diff " << worst_chol_diff
              << " exceeds 1e-12\n";
    return 1;
  }
  return 0;
}
