#include "ranging/rssi.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace sld::ranging {
namespace {

TEST(RssiBoundedUniform, ErrorWithinBound) {
  RssiRangingModel model(RssiConfig{});
  util::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.uniform(0.0, 150.0);
    const double m = model.measure(d, rng);
    EXPECT_LE(std::abs(m - d), 4.0 + 1e-12);
    EXPECT_GE(m, 0.0);
  }
}

TEST(RssiBoundedUniform, ErrorIsUnbiased) {
  RssiRangingModel model(RssiConfig{});
  util::Rng rng(2);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += model.measure(100.0, rng) - 100.0;
  EXPECT_NEAR(sum / kN, 0.0, 0.05);
}

TEST(RssiBoundedUniform, ErrorActuallySpreadsOverBound) {
  RssiRangingModel model(RssiConfig{});
  util::Rng rng(3);
  double max_err = 0.0;
  for (int i = 0; i < 10000; ++i)
    max_err = std::max(max_err, std::abs(model.measure(100.0, rng) - 100.0));
  EXPECT_GT(max_err, 3.5);  // should get close to the 4 ft bound
}

TEST(RssiLogNormal, ErrorClippedToBound) {
  RssiConfig cfg;
  cfg.kind = RssiModelKind::kLogNormalShadowing;
  cfg.shadowing_sigma_db = 6.0;  // heavy shadowing: clipping must engage
  RssiRangingModel model(cfg);
  util::Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.uniform(5.0, 150.0);
    const double m = model.measure(d, rng);
    EXPECT_LE(std::abs(m - d), cfg.max_error_ft + 1e-9);
  }
}

TEST(RssiLogNormal, ZeroSigmaIsExact) {
  RssiConfig cfg;
  cfg.kind = RssiModelKind::kLogNormalShadowing;
  cfg.shadowing_sigma_db = 0.0;
  RssiRangingModel model(cfg);
  util::Rng rng(5);
  EXPECT_NEAR(model.measure(100.0, rng), 100.0, 1e-9);
}

TEST(Rssi, ManipulationShiftsMeasurement) {
  RssiRangingModel model(RssiConfig{});
  util::Rng rng(6);
  const double m = model.measure_manipulated(100.0, 60.0, rng);
  EXPECT_GE(m, 156.0 - 1e-9);
  EXPECT_LE(m, 164.0 + 1e-9);
}

TEST(Rssi, NegativeManipulationClampsAtZero) {
  RssiRangingModel model(RssiConfig{});
  util::Rng rng(7);
  EXPECT_EQ(model.measure_manipulated(10.0, -100.0, rng), 0.0);
}

TEST(Rssi, ZeroDistanceSupported) {
  RssiRangingModel model(RssiConfig{});
  util::Rng rng(8);
  const double m = model.measure(0.0, rng);
  EXPECT_GE(m, 0.0);
  EXPECT_LE(m, 4.0 + 1e-12);
}

TEST(Rssi, ConfigValidation) {
  // NaN compares false, so a check written as `bound < 0` lets it through;
  // a NaN or infinite bound then reads every distance as 0 ft.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const struct {
    double RssiConfig::*field;
    std::vector<double> bad;
  } cases[] = {
      {&RssiConfig::max_error_ft, {-1.0, kNaN, kInf}},
      {&RssiConfig::path_loss_exponent, {0.0, -2.0, kNaN, kInf}},
      {&RssiConfig::reference_distance_ft, {0.0, kNaN, kInf}},
      {&RssiConfig::shadowing_sigma_db, {-1.0, kNaN, kInf}},
  };
  for (const auto& c : cases) {
    for (const double value : c.bad) {
      RssiConfig bad;
      bad.*c.field = value;
      EXPECT_THROW(RssiRangingModel{bad}, std::invalid_argument) << value;
    }
  }
  EXPECT_NO_THROW(RssiRangingModel{RssiConfig{}});
}

TEST(Rssi, NegativeDistanceRejected) {
  RssiRangingModel model(RssiConfig{});
  util::Rng rng(9);
  EXPECT_THROW(model.measure(-1.0, rng), std::invalid_argument);
}

}  // namespace
}  // namespace sld::ranging
