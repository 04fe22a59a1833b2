// The localization ladder, localization::localize, called directly: with
// the ladder off it is the plain multilateration solver, and on it
// degrades through the robust fit to the centroid.
#include "localization/fallback.hpp"

#include <gtest/gtest.h>

#include "localization/centroid.hpp"
#include "localization/multilateration.hpp"

namespace sld::localization {
namespace {

const util::Vec2 kTruth{500, 500};

/// References from `beacons` at their exact distances to kTruth.
LocationReferences exact_refs(std::initializer_list<util::Vec2> beacons) {
  LocationReferences refs;
  std::uint32_t id = 1;
  for (const auto& b : beacons)
    refs.push_back({id++, b, util::distance(kTruth, b)});
  return refs;
}

/// Five clean references plus one that lies about its distance by 200 ft.
LocationReferences refs_with_outlier() {
  auto refs = exact_refs(
      {{450, 450}, {560, 470}, {480, 590}, {555, 555}, {420, 520}});
  refs.push_back({99, {540, 430}, 280.0});
  return refs;
}

FallbackConfig ladder(bool enabled) {
  FallbackConfig config;
  config.enabled = enabled;
  return config;
}

TEST(Localize, LadderOffIsThePlainSolver) {
  // No RMS bound: the outlier's fit is taken as it is.
  const auto refs = refs_with_outlier();
  const auto plain = MultilaterationSolver().solve(refs);
  ASSERT_TRUE(plain.has_value());
  ASSERT_GT(plain->rms_residual_ft, ladder(true).acceptable_rms_ft);
  const auto fix = localize(refs, ladder(false));
  ASSERT_TRUE(fix.has_value());
  EXPECT_EQ(fix->position, plain->position);
  EXPECT_EQ(fix->rms_residual_ft, plain->rms_residual_ft);
  EXPECT_EQ(fix->tier, ConfidenceTier::kMultilateration);
  EXPECT_EQ(fix->discarded, 0u);
}

TEST(Localize, LadderOffNeedsThreeReferences) {
  EXPECT_FALSE(
      localize(exact_refs({{450, 450}, {560, 470}}), ladder(false)));
  EXPECT_TRUE(localize(exact_refs({{450, 450}, {560, 470}, {480, 590}}),
                       ladder(false)));
}

TEST(Localize, CleanReferencesStayOnTheMultilaterationRung) {
  const auto fix = localize(
      exact_refs({{450, 450}, {560, 470}, {480, 590}, {555, 555}}),
      ladder(true));
  ASSERT_TRUE(fix.has_value());
  EXPECT_EQ(fix->tier, ConfidenceTier::kMultilateration);
  EXPECT_LT(util::distance(fix->position, kTruth), 1e-3);
  EXPECT_LE(fix->rms_residual_ft, ladder(true).acceptable_rms_ft);
  EXPECT_EQ(fix->discarded, 0u);
}

TEST(Localize, GrossOutlierFallsToTheRobustRung) {
  const auto fix = localize(refs_with_outlier(), ladder(true));
  ASSERT_TRUE(fix.has_value());
  EXPECT_EQ(fix->tier, ConfidenceTier::kRobust);
  EXPECT_EQ(fix->discarded, 1u);
  EXPECT_LT(util::distance(fix->position, kTruth), 1e-3);
  EXPECT_LE(fix->rms_residual_ft, ladder(true).acceptable_rms_ft);
}

TEST(Localize, OneOrTwoReferencesFallToTheCentroidRung) {
  for (const auto& refs : {exact_refs({{450, 450}}),
                           exact_refs({{450, 450}, {560, 470}})}) {
    const auto fix = localize(refs, ladder(true));
    ASSERT_TRUE(fix.has_value());
    EXPECT_EQ(fix->tier, ConfidenceTier::kCentroid);
    EXPECT_EQ(fix->position, *weighted_centroid_estimate(refs));
    EXPECT_EQ(fix->rms_residual_ft, 0.0);
  }
}

TEST(Localize, NoReferencesNoFix) {
  EXPECT_FALSE(localize({}, ladder(true)));
  EXPECT_FALSE(localize({}, ladder(false)));
}

}  // namespace
}  // namespace sld::localization
