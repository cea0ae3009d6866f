// Parity: the blocked/parallel Phase-1 estimator must match the retained
// scalar reference implementation to <= 1e-12 for every backend x
// negative-covariance policy, at 1, 2, and 8 threads — and be bit-identical
// across those thread counts.  This is the guarantee that lets the kernel
// layer replace the seed's per-pair scalar loops without changing any
// experiment output.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/variance_estimator.hpp"
#include "test_util.hpp"

namespace losstomo::core {
namespace {

using losstomo::testing::make_random_mesh;
using losstomo::testing::random_variances;
using losstomo::testing::synthetic_observations;

struct Problem {
  topology::Topology topo;
  std::unique_ptr<net::ReducedRoutingMatrix> rrm;
  stats::SnapshotMatrix y{1, 1};
};

// A mesh large enough that every blocked kernel engages (path count well
// past one covariance tile) while dense QR stays affordable.
Problem make_problem(std::uint64_t seed) {
  stats::Rng rng(seed);
  Problem p;
  auto mesh = make_random_mesh(220, 16, rng);
  p.topo = std::move(mesh.topo);
  p.rrm = std::make_unique<net::ReducedRoutingMatrix>(p.topo.graph, mesh.paths);
  const auto v_true = random_variances(p.rrm->link_count(), rng, 0.25);
  const linalg::Vector mu(p.rrm->link_count(), -0.02);
  p.y = synthetic_observations(p.rrm->matrix(), mu, v_true, 96, rng);
  return p;
}

std::string combo_name(VarianceMethod method, NegativeCovariancePolicy policy,
                       std::size_t threads) {
  std::string name;
  switch (method) {
    case VarianceMethod::kDenseQr: name = "dense-qr"; break;
    case VarianceMethod::kNormal: name = "normal"; break;
    case VarianceMethod::kNnls: name = "nnls"; break;
  }
  name += policy == NegativeCovariancePolicy::kDrop ? "/drop" : "/keep";
  return name + "/threads=" + std::to_string(threads);
}

TEST(VarianceEstimatorParity, BlockedMatchesScalarReferenceEverywhere) {
  const auto p = make_problem(2024);
  ASSERT_GE(p.rrm->path_count(), 100u);

  const VarianceMethod methods[] = {VarianceMethod::kDenseQr,
                                    VarianceMethod::kNormal,
                                    VarianceMethod::kNnls};
  const NegativeCovariancePolicy policies[] = {NegativeCovariancePolicy::kDrop,
                                               NegativeCovariancePolicy::kKeep};
  const std::size_t thread_counts[] = {1, 2, 8};

  for (const auto method : methods) {
    for (const auto policy : policies) {
      VarianceOptions reference_opts;
      reference_opts.method = method;
      reference_opts.negatives = policy;
      reference_opts.use_reference_impl = true;
      reference_opts.threads = 1;
      const auto reference =
          estimate_link_variances(p.rrm->matrix(), p.y, reference_opts);

      linalg::Vector first_blocked;
      for (const auto threads : thread_counts) {
        VarianceOptions opts;
        opts.method = method;
        opts.negatives = policy;
        opts.threads = threads;
        const auto blocked = estimate_link_variances(p.rrm->matrix(), p.y, opts);
        const auto name = combo_name(method, policy, threads);

        // Same equations enter the least squares...
        EXPECT_EQ(blocked.method, reference.method) << name;
        EXPECT_EQ(blocked.equations_used, reference.equations_used) << name;
        EXPECT_EQ(blocked.equations_dropped, reference.equations_dropped)
            << name;
        // ...and the estimates agree to last-ulps rounding.
        ASSERT_EQ(blocked.v.size(), reference.v.size()) << name;
        EXPECT_LE(linalg::max_abs_diff(blocked.v, reference.v), 1e-12) << name;

        // The optimized path itself is bit-identical at any thread count.
        if (first_blocked.empty()) {
          first_blocked = blocked.v;
        } else {
          EXPECT_EQ(blocked.v, first_blocked) << name;
        }
      }
    }
  }
}

}  // namespace
}  // namespace losstomo::core
