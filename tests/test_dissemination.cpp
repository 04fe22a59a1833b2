#include "revocation/dissemination.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace sld::revocation {
namespace {

TEST(Dissemination, CertainDeliveryReachesEveryone) {
  DisseminationModel model(1.0, 1);
  for (sim::NodeId s = 0; s < 100; ++s)
    for (sim::NodeId b = 0; b < 10; ++b)
      EXPECT_TRUE(model.sensor_knows(s, b));
}

TEST(Dissemination, ZeroDeliveryReachesNoOne) {
  DisseminationModel model(0.0, 1);
  for (sim::NodeId s = 0; s < 100; ++s)
    EXPECT_FALSE(model.sensor_knows(s, 1));
}

TEST(Dissemination, FractionalRateApproximatelyHonored) {
  DisseminationModel model(0.8, 7);
  int knows = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i)
    if (model.sensor_knows(static_cast<sim::NodeId>(i), 3)) ++knows;
  EXPECT_NEAR(static_cast<double>(knows) / kN, 0.8, 0.01);
}

TEST(Dissemination, DecisionIsStablePerPair) {
  DisseminationModel model(0.5, 9);
  for (sim::NodeId s = 0; s < 200; ++s) {
    const bool first = model.sensor_knows(s, 4);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(model.sensor_knows(s, 4), first);
  }
}

TEST(Dissemination, IndependentAcrossRevocations) {
  DisseminationModel model(0.5, 10);
  int differ = 0;
  for (sim::NodeId s = 0; s < 1000; ++s)
    if (model.sensor_knows(s, 1) != model.sensor_knows(s, 2)) ++differ;
  EXPECT_GT(differ, 300);
}

TEST(Dissemination, RejectsBadProbability) {
  EXPECT_THROW(DisseminationModel(-0.1, 1), std::invalid_argument);
  EXPECT_THROW(DisseminationModel(1.1, 1), std::invalid_argument);
  EXPECT_THROW(
      DisseminationModel(std::numeric_limits<double>::quiet_NaN(), 1),
      std::invalid_argument);
}

}  // namespace
}  // namespace sld::revocation
