#include "localization/range_free.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace sld::localization {
namespace {

TEST(RangeFree, SingleBeaconCentersOnIt) {
  const auto result = range_free_estimate({{100, 100}});
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(result->position.x, 100.0, 3.0);
  EXPECT_NEAR(result->position.y, 100.0, 3.0);
}

TEST(RangeFree, EstimateLiesInEveryDisk) {
  util::Rng rng(1);
  RangeFreeConfig cfg;
  for (int trial = 0; trial < 50; ++trial) {
    const util::Vec2 truth{rng.uniform(200, 800), rng.uniform(200, 800)};
    std::vector<util::Vec2> heard;
    for (int i = 0; i < 5; ++i) {
      heard.push_back({truth.x + rng.uniform(-100, 100),
                       truth.y + rng.uniform(-100, 100)});
    }
    const auto result = range_free_estimate(heard, cfg);
    ASSERT_TRUE(result.has_value());
    for (const auto& b : heard) {
      EXPECT_LE(util::distance(result->position, b),
                cfg.comm_range_ft + cfg.grid_step_ft);
    }
  }
}

TEST(RangeFree, MoreBeaconsShrinkTheRegion) {
  util::Rng rng(2);
  const util::Vec2 truth{500, 500};
  std::vector<util::Vec2> few{{400, 500}, {600, 500}};
  std::vector<util::Vec2> many = few;
  many.push_back({500, 400});
  many.push_back({500, 620});
  const auto coarse = range_free_estimate(few);
  const auto fine = range_free_estimate(many);
  ASSERT_TRUE(coarse.has_value());
  ASSERT_TRUE(fine.has_value());
  EXPECT_LT(fine->region_samples, coarse->region_samples);
}

TEST(RangeFree, BoundedErrorForHonestBeacons) {
  util::Rng rng(3);
  util::RunningStat err;
  RangeFreeConfig cfg;
  for (int trial = 0; trial < 100; ++trial) {
    const util::Vec2 truth{rng.uniform(200, 800), rng.uniform(200, 800)};
    std::vector<util::Vec2> heard;
    for (int i = 0; i < 6; ++i) {
      // Beacons the sensor hears lie within its range, by definition.
      for (;;) {
        const util::Vec2 b{truth.x + rng.uniform(-150, 150),
                           truth.y + rng.uniform(-150, 150)};
        if (util::distance(truth, b) <= cfg.comm_range_ft) {
          heard.push_back(b);
          break;
        }
      }
    }
    const auto result = range_free_estimate(heard, cfg);
    ASSERT_TRUE(result.has_value());
    err.add(util::distance(result->position, truth));
  }
  // Range-free is coarse but sane: mean error well under one range.
  EXPECT_LT(err.mean(), 75.0);
}

TEST(RangeFree, LyingBeaconDragsTheEstimate) {
  // The related-work comparison: no amount of range-free robustness stops
  // a compromised beacon that claims a wrong location.
  const util::Vec2 truth{500, 500};
  std::vector<util::Vec2> honest{{450, 500}, {550, 500}, {500, 450}};
  const auto clean = range_free_estimate(honest);
  ASSERT_TRUE(clean.has_value());
  auto attacked = honest;
  attacked.push_back({640, 640});  // liar, still intersecting
  const auto skewed = range_free_estimate(attacked);
  ASSERT_TRUE(skewed.has_value());
  EXPECT_GT(util::distance(skewed->position, truth),
            util::distance(clean->position, truth) + 10.0);
}

TEST(RangeFree, InconsistentClaimsYieldNothing) {
  // Two "heard" beacons claiming positions > 2R apart cannot both be
  // heard — the empty intersection is itself a tamper signal.
  const auto result = range_free_estimate({{0, 0}, {400, 0}});
  EXPECT_FALSE(result.has_value());
}

TEST(RangeFree, Validation) {
  EXPECT_FALSE(range_free_estimate({}).has_value());
  RangeFreeConfig bad;
  bad.comm_range_ft = 0.0;
  EXPECT_THROW(range_free_estimate({{0, 0}}, bad), std::invalid_argument);
  bad = RangeFreeConfig{};
  bad.grid_step_ft = 0.0;
  EXPECT_THROW(range_free_estimate({{0, 0}}, bad), std::invalid_argument);
}

}  // namespace
}  // namespace sld::localization
