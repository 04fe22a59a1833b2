#include "detection/beacon_check.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "ranging/rssi.hpp"
#include "util/rng.hpp"

namespace sld::detection {
namespace {

TEST(ConsistencyCheck, ConsistentSignalPasses) {
  ConsistencyCheck check(4.0);
  // Detector at origin, beacon claims (100, 0), measured 102 ft: within
  // the 4 ft bound.
  EXPECT_FALSE(check.is_malicious({0, 0}, {100, 0}, 102.0));
  EXPECT_FALSE(check.is_malicious({0, 0}, {100, 0}, 98.0));
}

TEST(ConsistencyCheck, BoundaryIsNotMalicious) {
  ConsistencyCheck check(4.0);
  // Exactly the maximum error: the paper flags only *larger* differences.
  EXPECT_FALSE(check.is_malicious({0, 0}, {100, 0}, 104.0));
  EXPECT_FALSE(check.is_malicious({0, 0}, {100, 0}, 96.0));
}

TEST(ConsistencyCheck, InconsistentSignalFlagged) {
  ConsistencyCheck check(4.0);
  EXPECT_TRUE(check.is_malicious({0, 0}, {100, 0}, 104.5));
  EXPECT_TRUE(check.is_malicious({0, 0}, {100, 0}, 95.0));
  EXPECT_TRUE(check.is_malicious({0, 0}, {100, 0}, 0.0));
}

TEST(ConsistencyCheck, CalculatedDistanceIsEuclidean) {
  EXPECT_DOUBLE_EQ(ConsistencyCheck::calculated_distance({0, 0}, {3, 4}),
                   5.0);
}

TEST(ConsistencyCheck, HonestMeasurementsNeverFlagged) {
  // Soundness: an honest beacon with honest ranging can never be flagged,
  // for any geometry — zero false positives by construction.
  ConsistencyCheck check(4.0);
  ranging::RssiRangingModel rssi(ranging::RssiConfig{});
  util::Rng rng(1);
  for (int i = 0; i < 20000; ++i) {
    const util::Vec2 detector{rng.uniform(0, 1000), rng.uniform(0, 1000)};
    const util::Vec2 beacon{detector.x + rng.uniform(-150, 150),
                            detector.y + rng.uniform(-150, 150)};
    const double measured =
        rssi.measure(util::distance(detector, beacon), rng);
    EXPECT_FALSE(check.is_malicious(detector, beacon, measured));
  }
}

TEST(ConsistencyCheck, LocationLiesBeyondBoundAreCaught) {
  // Completeness on the attack the paper draws in Figure 2: claiming
  // (x', y') while the measured distance reflects the true position.
  ConsistencyCheck check(4.0);
  ranging::RssiRangingModel rssi(ranging::RssiConfig{});
  util::Rng rng(2);
  int caught = 0, trials = 0;
  for (int i = 0; i < 5000; ++i) {
    const util::Vec2 detector{500, 500};
    const util::Vec2 true_pos{detector.x + rng.uniform(-100, 100),
                              detector.y + rng.uniform(-100, 100)};
    // Lie radially: push the claim straight away from the detector, which
    // changes the calculated distance by exactly the lie magnitude.
    const util::Vec2 delta = true_pos - detector;
    const double d = delta.norm();
    if (d < 1.0) continue;
    const double lie = 20.0;
    const util::Vec2 claimed = detector + delta * ((d + lie) / d);
    const double measured = rssi.measure(d, rng);
    ++trials;
    if (check.is_malicious(detector, claimed, measured)) ++caught;
  }
  EXPECT_EQ(caught, trials);  // 20 ft radial lie >> 4 ft bound: always caught
}

TEST(ConsistencyCheck, RangeManipulationCaught) {
  ConsistencyCheck check(4.0);
  ranging::RssiRangingModel rssi(ranging::RssiConfig{});
  util::Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    const double d = rng.uniform(10.0, 150.0);
    const double measured = rssi.measure_manipulated(d, 60.0, rng);
    EXPECT_TRUE(check.is_malicious({0, 0}, {d, 0}, measured));
  }
}

TEST(ConsistencyCheck, DistanceConsistentLieIsInvisibleAndHarmless) {
  // The paper's §2.1 argument: a lie that keeps the measured distance
  // consistent "is equivalent to ... a benign beacon node located at
  // (x', y')" — the check must NOT flag it.
  ConsistencyCheck check(4.0);
  const util::Vec2 detector{0, 0};
  const util::Vec2 claimed{60, 80};  // calculated distance = 100
  EXPECT_FALSE(check.is_malicious(detector, claimed, 100.0));
}

TEST(ConsistencyCheck, Validation) {
  EXPECT_THROW(ConsistencyCheck(-1.0), std::invalid_argument);
  EXPECT_THROW(ConsistencyCheck(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  ConsistencyCheck check(4.0);
  EXPECT_THROW(check.is_malicious({0, 0}, {1, 1}, -0.1),
               std::invalid_argument);
}

TEST(ConsistencyCheck, NonFiniteInputsAreMalicious) {
  // A compromised beacon's reply is correctly MACed, so it can claim any
  // double. NaN compares false against the bound; the check fails closed.
  ConsistencyCheck check(4.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    EXPECT_TRUE(check.is_malicious({0, 0}, {bad, 0}, 100.0)) << bad;
    EXPECT_TRUE(check.is_malicious({0, 0}, {100, bad}, 100.0)) << bad;
  }
  EXPECT_TRUE(check.is_malicious({0, 0}, {nan, nan}, 100.0));
  EXPECT_TRUE(check.is_malicious({0, 0}, {100, 0}, nan));
}

TEST(ConsistencyCheck, ZeroErrorBoundFlagsAnyDeviation) {
  ConsistencyCheck check(0.0);
  EXPECT_TRUE(check.is_malicious({0, 0}, {100, 0}, 100.001));
  EXPECT_FALSE(check.is_malicious({0, 0}, {100, 0}, 100.0));
}

}  // namespace
}  // namespace sld::detection
