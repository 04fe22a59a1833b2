#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ranging/toa.hpp"
#include "util/rng.hpp"

namespace sld {
namespace {

TEST(Toa, ErrorWithinBound) {
  ranging::ToaRangingModel model;
  util::Rng rng(1);
  const double bound = model.max_error_ft();
  EXPECT_NEAR(bound, 3.93, 0.05);  // 4 ns of sync error ~ 3.9 ft
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.uniform(0.0, 150.0);
    EXPECT_LE(std::abs(model.measure(d, rng) - d), bound + 1e-9);
  }
}

TEST(Toa, ManipulationShiftsDistance) {
  ranging::ToaRangingModel model;
  util::Rng rng(2);
  // +100 ns of timestamp manipulation ~ +98 ft.
  const double m = model.measure_manipulated(50.0, 100.0, rng);
  EXPECT_GT(m, 140.0);
  EXPECT_LT(m, 155.0);
}

TEST(Toa, NonNegativeAndValidated) {
  ranging::ToaRangingModel model;
  util::Rng rng(3);
  EXPECT_GE(model.measure_manipulated(1.0, -1000.0, rng), 0.0);
  EXPECT_THROW(model.measure(-1.0, rng), std::invalid_argument);
  for (const double value : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    ranging::ToaConfig bad;
    bad.max_sync_error_ns = value;
    EXPECT_THROW(ranging::ToaRangingModel{bad}, std::invalid_argument)
        << value;
  }
}

}  // namespace
}  // namespace sld
