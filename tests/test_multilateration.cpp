#include "localization/multilateration.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/rng.hpp"

namespace sld::localization {
namespace {

LocationReferences exact_refs(const util::Vec2& truth,
                              const std::vector<util::Vec2>& beacons) {
  LocationReferences refs;
  std::uint32_t id = 1;
  for (const auto& b : beacons)
    refs.push_back({id++, b, util::distance(truth, b)});
  return refs;
}

TEST(Multilateration, ExactRecoveryFromThreeBeacons) {
  const util::Vec2 truth{40.0, 70.0};
  const auto refs = exact_refs(truth, {{0, 0}, {100, 0}, {0, 100}});
  MultilaterationSolver solver;
  const auto fit = solver.solve(refs);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->position.x, truth.x, 1e-6);
  EXPECT_NEAR(fit->position.y, truth.y, 1e-6);
  EXPECT_NEAR(fit->rms_residual_ft, 0.0, 1e-6);
}

TEST(Multilateration, ExactRecoveryManyBeacons) {
  const util::Vec2 truth{512.5, 417.25};
  const auto refs = exact_refs(
      truth, {{0, 0}, {1000, 0}, {0, 1000}, {1000, 1000}, {500, 0}, {0, 500}});
  MultilaterationSolver solver;
  const auto fit = solver.solve(refs);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(util::distance(fit->position, truth), 0.0, 1e-6);
}

TEST(Multilateration, FewerThanThreeReferencesFails) {
  const util::Vec2 truth{1, 1};
  MultilaterationSolver solver;
  EXPECT_FALSE(solver.solve({}).has_value());
  EXPECT_FALSE(solver.solve(exact_refs(truth, {{0, 0}})).has_value());
  EXPECT_FALSE(
      solver.solve(exact_refs(truth, {{0, 0}, {10, 0}})).has_value());
}

TEST(Multilateration, CollinearBeaconsRejected) {
  const util::Vec2 truth{50, 50};
  const auto refs = exact_refs(truth, {{0, 0}, {100, 0}, {200, 0}});
  MultilaterationSolver solver;
  // Collinear geometry is ambiguous (mirror solutions); the linear stage
  // must refuse rather than pick silently.
  EXPECT_FALSE(solver.solve(refs).has_value());
}

TEST(Multilateration, BoundedNoiseGivesBoundedError) {
  util::Rng rng(1);
  MultilaterationSolver solver;
  for (int trial = 0; trial < 200; ++trial) {
    const util::Vec2 truth{rng.uniform(100, 900), rng.uniform(100, 900)};
    LocationReferences refs;
    for (std::uint32_t i = 0; i < 6; ++i) {
      const util::Vec2 b{truth.x + rng.uniform(-150, 150),
                         truth.y + rng.uniform(-150, 150)};
      refs.push_back({i, b, util::distance(truth, b) + rng.uniform(-4, 4)});
    }
    const auto fit = solver.solve(refs);
    ASSERT_TRUE(fit.has_value());
    EXPECT_LT(util::distance(fit->position, truth), 40.0);
  }
}

TEST(Multilateration, ResidualsMatchDefinition) {
  const util::Vec2 truth{10, 20};
  auto refs = exact_refs(truth, {{0, 0}, {50, 0}, {0, 50}});
  refs[0].measured_distance_ft += 5.0;  // inject a 5 ft error
  MultilaterationSolver solver;
  const auto fit = solver.solve(refs);
  ASSERT_TRUE(fit.has_value());
  double sum_sq = 0.0;
  for (const auto& r : refs) {
    const double resid =
        util::distance(fit->position, r.beacon_position) -
        r.measured_distance_ft;
    sum_sq += resid * resid;
  }
  const double expect = std::sqrt(sum_sq / static_cast<double>(refs.size()));
  EXPECT_GT(expect, 0.1);  // the injected error leaves a nonzero residual
  EXPECT_NEAR(fit->rms_residual_ft, expect, 1e-9);
}

TEST(Multilateration, MaliciousReferenceSkewsEstimate) {
  // The attack the paper defends against: one lying reference visibly
  // degrades the fix.
  const util::Vec2 truth{500, 500};
  auto refs = exact_refs(truth, {{400, 400}, {600, 400}, {500, 620}});
  MultilaterationSolver solver;
  const auto clean = solver.solve(refs);
  ASSERT_TRUE(clean.has_value());
  refs.push_back({99, {560, 500}, 200.0});  // beacon 60 ft away claims 200
  const auto attacked = solver.solve(refs);
  ASSERT_TRUE(attacked.has_value());
  EXPECT_GT(util::distance(attacked->position, truth),
            util::distance(clean->position, truth) + 10.0);
}

TEST(Multilateration, NonFiniteReferenceGivesNoFix) {
  // Three good references plus one whose measured distance is infinite
  // (an insider's infinite range manipulation) or NaN: no fix, never a
  // "successful" (nan, nan).
  const util::Vec2 truth{40.0, 70.0};
  const auto good = exact_refs(truth, {{0, 0}, {100, 0}, {0, 100}});
  MultilaterationSolver solver;
  ASSERT_TRUE(solver.solve(good).has_value());
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    auto refs = good;
    refs.push_back({4, util::Vec2{100, 100}, bad});
    EXPECT_FALSE(solver.solve(refs).has_value()) << bad;
  }
}

TEST(Multilateration, RmsResidualHelper) {
  const util::Vec2 truth{0, 0};
  const auto refs = exact_refs(truth, {{10, 0}, {0, 10}, {-10, 0}});
  EXPECT_NEAR(rms_residual(truth, refs), 0.0, 1e-12);
  EXPECT_GT(rms_residual({5, 5}, refs), 1.0);
  EXPECT_EQ(rms_residual(truth, {}), 0.0);
}

TEST(Multilateration, OptionsValidation) {
  MultilaterationOptions bad;
  bad.max_iterations = 0;
  EXPECT_THROW(MultilaterationSolver{bad}, std::invalid_argument);
  bad = MultilaterationOptions{};
  bad.convergence_ft = 0.0;
  EXPECT_THROW(MultilaterationSolver{bad}, std::invalid_argument);
}

TEST(Multilateration, FarInitialGuessStillConverges) {
  // Beacons clustered on one side: linear initializer is poor, the damped
  // Gauss-Newton loop must still converge.
  const util::Vec2 truth{900, 900};
  const auto refs =
      exact_refs(truth, {{800, 850}, {850, 780}, {770, 880}, {820, 830}});
  MultilaterationSolver solver;
  const auto fit = solver.solve(refs);
  ASSERT_TRUE(fit.has_value());
  EXPECT_LT(util::distance(fit->position, truth), 1.0);
}

}  // namespace
}  // namespace sld::localization
