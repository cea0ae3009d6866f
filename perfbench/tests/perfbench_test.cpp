// Unit tests of the benchmark's own code: the percentile rule, input
// checksums, the parity guard, tick validation and metric names.
//
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   ctest --test-dir .bench_build/perfbench --output-on-failure
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <regex>
#include <set>
#include <sstream>

#include "measure.hpp"
#include "workloads.hpp"

namespace {

using losstomo::core::LossInference;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

LossInference sample_inference() {
  LossInference inference;
  inference.loss = {0.0, 0.01, 0.25};
  inference.phi = {1.0, 0.99, 0.75};
  inference.removed = {true, false, false};
  inference.residual_norm = 0.5;
  return inference;
}

TEST(PercentileRule, NearestRankValues) {
  EXPECT_EQ(perfbench::percentile(ramp(100), 0.9), 90.0);
  EXPECT_EQ(perfbench::percentile(ramp(100), 0.5), 50.0);
  EXPECT_EQ(perfbench::percentile(ramp(1), 0.9), 1.0);
  EXPECT_EQ(perfbench::median(ramp(4)), 2.5);
  EXPECT_EQ(perfbench::median(ramp(5)), 3.0);
}

TEST(PercentileRule, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(perfbench::samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(perfbench::samples_beyond(99, 0.9), 9u);
  ASSERT_TRUE(perfbench::tail_percentile(ramp(100), 0.9).has_value());
  EXPECT_EQ(*perfbench::tail_percentile(ramp(100), 0.9), 90.0);
  EXPECT_FALSE(perfbench::tail_percentile(ramp(99), 0.9).has_value());
  EXPECT_FALSE(perfbench::tail_percentile({}, 0.9).has_value());
}

TEST(PercentileRule, EveryWorkloadLeavesTenTicksBeyondP90) {
  for (const auto& w : perfbench::workload_names()) {
    EXPECT_GE(perfbench::samples_beyond(perfbench::timed_ticks(w, 1.0), 0.9),
              perfbench::kTailSamplesBeyond)
        << w;
  }
}

TEST(InputChecksum, SameSeedSameInputsOtherSeedOtherInputs) {
  for (const auto& w : perfbench::workload_names()) {
    const auto a = perfbench::input_checksum(w, 7, 3);
    EXPECT_EQ(a, perfbench::input_checksum(w, 7, 3)) << w;
    EXPECT_NE(a, perfbench::input_checksum(w, 8, 3)) << w;
  }
}

TEST(ParityGuard, IdenticalInferencesPass) {
  perfbench::ParityGuard guard;
  guard.check(sample_inference(), sample_inference());
  EXPECT_EQ(guard.checked(), 1u);
  EXPECT_EQ(guard.mismatches(), 0u);
}

TEST(ParityGuard, TripsOnOneUlpPerturbation) {
  auto perturbed = sample_inference();
  perturbed.loss[1] = std::nextafter(perturbed.loss[1], 1.0);
  perfbench::ParityGuard guard;
  guard.check(sample_inference(), perturbed);
  EXPECT_EQ(guard.mismatches(), 1u);
}

TEST(ParityGuard, TripsOnRemovedSetAndMissingInference) {
  auto perturbed = sample_inference();
  perturbed.removed[0] = false;
  perfbench::ParityGuard guard;
  guard.check(sample_inference(), perturbed);
  guard.check(sample_inference(), std::nullopt);
  guard.check(std::nullopt, std::nullopt);
  EXPECT_EQ(guard.checked(), 3u);
  EXPECT_EQ(guard.mismatches(), 3u);
}

TEST(TickValidation, RejectsMissingNonFiniteAndOutOfRangeLoss) {
  EXPECT_TRUE(perfbench::inference_valid(sample_inference(), 3));
  EXPECT_FALSE(perfbench::inference_valid(std::nullopt, 3));
  EXPECT_FALSE(perfbench::inference_valid(sample_inference(), 4));
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -1e-9,
                           1.5}) {
    auto inference = sample_inference();
    inference.loss[2] = bad;
    EXPECT_FALSE(perfbench::inference_valid(inference, 3)) << bad;
  }
}

TEST(MetricNames, EveryEmittedNameIsValid) {
  const std::regex pattern("[A-Za-z0-9_.-]+");
  for (const auto* list :
       {&perfbench::workload_names(), &perfbench::end_to_end_names(),
        &perfbench::per_layer_names()}) {
    for (const auto& name : *list) {
      EXPECT_TRUE(std::regex_match(name, pattern)) << name;
      EXPECT_TRUE(perfbench::valid_name(name)) << name;
    }
  }
  EXPECT_FALSE(perfbench::valid_name(""));
  EXPECT_FALSE(perfbench::valid_name("tick p50"));
  EXPECT_FALSE(perfbench::valid_name(".hidden"));
  EXPECT_FALSE(perfbench::valid_name("rate/s"));
}

TEST(MetricNames, MatchBenchmarkJson) {
  std::ifstream in(PERFBENCH_ROOT "/BENCHMARK.json");
  ASSERT_TRUE(in) << "BENCHMARK.json not found";
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  std::set<std::string> declared;
  const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]+)\"");
  for (auto it = std::sregex_iterator(json.begin(), json.end(), name_re);
       it != std::sregex_iterator(); ++it) {
    declared.insert((*it)[1]);
  }
  std::set<std::string> emitted;
  for (const auto* list :
       {&perfbench::workload_names(), &perfbench::end_to_end_names(),
        &perfbench::per_layer_names()}) {
    emitted.insert(list->begin(), list->end());
  }
  EXPECT_EQ(declared, emitted);
}

}  // namespace
