// Property suite: the full event-driven simulation must track the paper's
// closed-form analysis (the comparison Figures 12 and 13 make). Runs at
// paper scale with a handful of trials per point, so tolerances are loose
// but directional properties are strict.
#include <gtest/gtest.h>

#include <string>

#include "analysis/formulas.hpp"
#include "core/experiment.hpp"

namespace sld::core {
namespace {

/// gtest parameter name "<prefix><value>", built by appending: GCC 12
/// reports a false -Wrestrict on `const char* + std::string&&`.
template <typename T>
std::string param_name(const char* prefix, T value) {
  std::string name = prefix;
  name += std::to_string(value);
  return name;
}

SystemConfig paper_config(double P, std::uint64_t seed) {
  SystemConfig c;
  c.strategy = attack::MaliciousStrategyConfig::with_effectiveness(P);
  c.seed = seed;
  return c;
}

class TheoryVsSim : public ::testing::TestWithParam<double> {};

TEST_P(TheoryVsSim, DetectionRateTracksAnalysis) {
  const double P = GetParam();
  ExperimentConfig e{paper_config(P, 100 + static_cast<std::uint64_t>(P * 100)),
                     3};
  const auto agg = run_experiment(e);

  const auto params =
      model_params_for(e.base, agg.requesters_per_malicious.mean());
  const double theory = analysis::revocation_probability(params, P);
  // 3 trials x 10 malicious beacons = 30 Bernoulli draws; allow a wide but
  // meaningful band.
  EXPECT_NEAR(agg.detection_rate.mean(), theory, 0.22)
      << "P = " << P << ", theory P_d = " << theory;
}

TEST_P(TheoryVsSim, AffectedNodesTrackAnalysis) {
  const double P = GetParam();
  ExperimentConfig e{paper_config(P, 300 + static_cast<std::uint64_t>(P * 100)),
                     3};
  const auto agg = run_experiment(e);

  const auto params =
      model_params_for(e.base, agg.requesters_per_malicious.mean());
  const double theory = analysis::affected_nonbeacon_nodes(params, P);
  const double measured = agg.affected_per_malicious.mean();
  // Within 35% relative or 2 absolute, like the paper's "observable but
  // small difference" between simulation and theory.
  EXPECT_NEAR(measured, theory, std::max(2.0, 0.35 * theory))
      << "P = " << P << ", theory N' = " << theory;
}

INSTANTIATE_TEST_SUITE_P(AttackEffectivenessSweep, TheoryVsSim,
                         ::testing::Values(0.1, 0.3, 0.5, 0.8),
                         [](const auto& p) {
                           return param_name("P", static_cast<int>(p.param * 100));
                         });

TEST(TheoryVsSim, HigherPMeansMoreRevocations) {
  ExperimentConfig lo{paper_config(0.05, 1), 3};
  ExperimentConfig hi{paper_config(0.9, 1), 3};
  const auto lo_agg = run_experiment(lo);
  const auto hi_agg = run_experiment(hi);
  EXPECT_GT(hi_agg.detection_rate.mean(), lo_agg.detection_rate.mean());
}

TEST(TheoryVsSim, FalsePositivesStayLowWithoutCollusion) {
  ExperimentConfig e{paper_config(0.5, 7), 3};
  const auto agg = run_experiment(e);
  EXPECT_LT(agg.false_positive_rate.mean(), 0.05);
}

}  // namespace
}  // namespace sld::core
