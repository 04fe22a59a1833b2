#include "attack/strategy.hpp"

#include "crypto/detecting_ids.hpp"
#include "sim/deployment.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>

namespace sld::attack {
namespace {

TEST(StrategyConfig, EffectivenessFormula) {
  MaliciousStrategyConfig c;
  c.p_normal = 0.2;
  c.p_fake_wormhole = 0.3;
  c.p_fake_local_replay = 0.5;
  EXPECT_NEAR(c.effectiveness(), 0.8 * 0.7 * 0.5, 1e-12);
}

TEST(StrategyConfig, WithEffectiveness) {
  const auto c = MaliciousStrategyConfig::with_effectiveness(0.35);
  EXPECT_NEAR(c.effectiveness(), 0.35, 1e-12);
  EXPECT_NEAR(c.p_normal, 0.65, 1e-12);
  EXPECT_THROW(MaliciousStrategyConfig::with_effectiveness(1.5),
               std::invalid_argument);
  EXPECT_THROW(MaliciousStrategyConfig::with_effectiveness(
                   std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(Strategy, BehaviorIsStickyPerRequester) {
  MaliciousStrategyConfig c;
  c.p_normal = 0.5;
  MaliciousBeaconStrategy s(c, 123);
  for (sim::NodeId req = 1; req < 200; ++req) {
    const auto first = s.behavior_for(req);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(s.behavior_for(req), first);
  }
}

TEST(Strategy, FractionsMatchConfiguration) {
  MaliciousStrategyConfig c;
  c.p_normal = 0.3;
  c.p_fake_wormhole = 0.4;
  c.p_fake_local_replay = 0.5;
  MaliciousBeaconStrategy s(c, 7);
  std::map<MaliciousBehavior, int> counts;
  constexpr int kN = 100000;
  for (sim::NodeId req = 0; req < kN; ++req) ++counts[s.behavior_for(req)];
  const double n = kN;
  EXPECT_NEAR(counts[MaliciousBehavior::kNormal] / n, 0.3, 0.01);
  EXPECT_NEAR(counts[MaliciousBehavior::kFakeWormhole] / n, 0.7 * 0.4, 0.01);
  EXPECT_NEAR(counts[MaliciousBehavior::kFakeLocalReplay] / n,
              0.7 * 0.6 * 0.5, 0.01);
  EXPECT_NEAR(counts[MaliciousBehavior::kEffective] / n, c.effectiveness(),
              0.01);
}

TEST(Strategy, DifferentSeedsPartitionDifferently) {
  const auto c = MaliciousStrategyConfig::with_effectiveness(0.5);
  MaliciousBeaconStrategy a(c, 1), b(c, 2);
  int differ = 0;
  for (sim::NodeId req = 0; req < 1000; ++req)
    if (a.behavior_for(req) != b.behavior_for(req)) ++differ;
  EXPECT_GT(differ, 300);
}

TEST(Strategy, PureStrategies) {
  MaliciousStrategyConfig c;
  c.p_normal = 1.0;
  MaliciousBeaconStrategy all_normal(c, 1);
  c.p_normal = 0.0;
  MaliciousBeaconStrategy all_effective(c, 1);
  for (sim::NodeId req = 0; req < 100; ++req) {
    EXPECT_EQ(all_normal.behavior_for(req), MaliciousBehavior::kNormal);
    EXPECT_EQ(all_effective.behavior_for(req), MaliciousBehavior::kEffective);
  }
}

TEST(Strategy, RejectsBadProbabilities) {
  MaliciousStrategyConfig c;
  c.p_normal = -0.1;
  EXPECT_THROW(MaliciousBeaconStrategy(c, 1), std::invalid_argument);
  c = MaliciousStrategyConfig{};
  c.p_fake_wormhole = 1.5;
  EXPECT_THROW(MaliciousBeaconStrategy(c, 1), std::invalid_argument);
  c = MaliciousStrategyConfig{};
  c.p_fake_local_replay = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(MaliciousBeaconStrategy(c, 1), std::invalid_argument);
}

TEST(CraftReply, NormalBehaviorIsTruthful) {
  MaliciousStrategyConfig c;
  c.p_normal = 1.0;
  MaliciousBeaconStrategy s(c, 9);
  const util::Vec2 pos{100, 200};
  const auto reply = s.craft_reply(42, 777, pos);
  EXPECT_EQ(reply.nonce, 777u);
  EXPECT_EQ(reply.claimed_position, pos);
  EXPECT_EQ(reply.processing_bias_cycles, 0.0);
  EXPECT_EQ(reply.range_manipulation_ft, 0.0);
  EXPECT_FALSE(reply.fake_wormhole_indication);
}

TEST(CraftReply, EffectiveBehaviorLiesAboutLocation) {
  MaliciousStrategyConfig c;
  c.p_normal = 0.0;
  c.location_lie_ft = 100.0;
  MaliciousBeaconStrategy s(c, 9);
  const util::Vec2 pos{100, 200};
  const auto reply = s.craft_reply(42, 1, pos);
  EXPECT_NEAR(util::distance(reply.claimed_position, pos), 100.0, 1e-9);
  EXPECT_FALSE(reply.fake_wormhole_indication);
  EXPECT_EQ(reply.processing_bias_cycles, 0.0);
}

TEST(CraftReply, FakeWormholeClaimsFarOrigin) {
  MaliciousStrategyConfig c;
  c.p_normal = 0.0;
  c.p_fake_wormhole = 1.0;
  c.far_claim_ft = 400.0;
  MaliciousBeaconStrategy s(c, 9);
  const util::Vec2 pos{500, 500};
  const auto reply = s.craft_reply(42, 1, pos);
  EXPECT_TRUE(reply.fake_wormhole_indication);
  EXPECT_NEAR(util::distance(reply.claimed_position, pos), 400.0, 1e-9);
}

TEST(CraftReply, FakeLocalReplayInflatesRtt) {
  MaliciousStrategyConfig c;
  c.p_normal = 0.0;
  c.p_fake_local_replay = 1.0;
  MaliciousBeaconStrategy s(c, 9);
  const auto reply = s.craft_reply(42, 1, {0, 0});
  EXPECT_GT(reply.processing_bias_cycles, 1728.0);  // > the 4.5-bit span
  EXPECT_FALSE(reply.fake_wormhole_indication);
}

TEST(Strategy, DetectingIdsAreIndistinguishableFromSensorIds) {
  // The scheme's crux (§2.1): "it is very difficult for an attacker to
  // distinguish the requests from detecting beacon nodes and those from
  // non-beacon nodes". Allocate detecting IDs and real sensor IDs from
  // the same space and check the malicious beacon treats both populations
  // statistically identically.
  crypto::DetectingIdRegistry registry(sim::kNonBeaconIdBase,
                                       sim::kNonBeaconIdBase + 1'000'000);
  util::Rng rng(55);
  std::vector<sim::NodeId> sensor_ids;
  for (sim::NodeId i = 0; i < 5000; ++i) {
    sensor_ids.push_back(sim::kNonBeaconIdBase + i * 200);
    registry.reserve_real_id(sensor_ids.back());
  }
  std::vector<sim::NodeId> detecting_ids;
  for (std::uint32_t beacon = 1; beacon <= 625; ++beacon) {
    for (const auto id : registry.allocate(beacon, 8, rng))
      detecting_ids.push_back(id);
  }

  const auto cfg = MaliciousStrategyConfig::with_effectiveness(0.4);
  MaliciousBeaconStrategy strategy(cfg, 777);
  const auto effective_fraction = [&](const std::vector<sim::NodeId>& ids) {
    int n = 0;
    for (const auto id : ids)
      if (strategy.behavior_for(id) == MaliciousBehavior::kEffective) ++n;
    return static_cast<double>(n) / static_cast<double>(ids.size());
  };
  const double sensors = effective_fraction(sensor_ids);
  const double detectors = effective_fraction(detecting_ids);
  EXPECT_NEAR(sensors, 0.4, 0.03);
  EXPECT_NEAR(detectors, 0.4, 0.03);
  EXPECT_NEAR(sensors, detectors, 0.04);
  // And both ID populations read as non-beacon IDs.
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(sim::is_beacon_id(detecting_ids[static_cast<std::size_t>(
        i * 37 % static_cast<int>(detecting_ids.size()))]));
  }
}

TEST(CraftReply, LieDirectionIsStickyPerRequester) {
  MaliciousStrategyConfig c;
  c.p_normal = 0.0;
  MaliciousBeaconStrategy s(c, 9);
  const auto a = s.craft_reply(42, 1, {0, 0});
  const auto b = s.craft_reply(42, 2, {0, 0});
  EXPECT_EQ(a.claimed_position, b.claimed_position);
  const auto other = s.craft_reply(43, 1, {0, 0});
  EXPECT_NE(a.claimed_position, other.claimed_position);
}

}  // namespace
}  // namespace sld::attack
