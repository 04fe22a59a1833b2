#include "detection/detector.hpp"

#include <gtest/gtest.h>

#include "attack/strategy.hpp"
#include "ranging/rssi.hpp"
#include "ranging/rtt.hpp"
#include "util/rng.hpp"

namespace sld::detection {
namespace {

constexpr double kXmax = 7124.0;

DetectorConfig config() {
  DetectorConfig c;
  c.max_ranging_error_ft = 4.0;
  c.replay.rtt_x_max_cycles = kXmax;
  return c;
}

class DetectorTest : public ::testing::Test {
 protected:
  ranging::ProbabilisticWormholeDetector wh{0.9};
  Detector detector{config(), &wh};
  ranging::RssiRangingModel rssi{ranging::RssiConfig{}};
  ranging::MoteTimingModel timing;
  util::Rng rng{1};

  /// Builds the observation a detecting node at `det_pos` would assemble
  /// after probing a beacon at `true_pos` that replied with `reply`.
  SignalObservation observe(const util::Vec2& det_pos,
                            const util::Vec2& true_pos,
                            const sim::BeaconReplyPayload& reply) {
    SignalObservation o;
    o.receiver_position = det_pos;
    o.claimed_position = reply.claimed_position;
    const double d = util::distance(det_pos, true_pos);
    o.measured_distance_ft =
        rssi.measure_manipulated(d, reply.range_manipulation_ft, rng);
    o.observed_rtt_cycles =
        timing.sample_rtt_cycles(d, rng) + reply.processing_bias_cycles;
    o.target_range_ft = 150.0;
    o.sender_faked_wormhole_indication = reply.fake_wormhole_indication;
    return o;
  }
};

TEST_F(DetectorTest, HonestBeaconIsConsistent) {
  sim::BeaconReplyPayload honest;
  honest.claimed_position = {100, 0};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(detector.evaluate(observe({0, 0}, {100, 0}, honest), rng),
              ProbeOutcome::kConsistent);
  }
}

TEST_F(DetectorTest, EffectiveMaliciousSignalRaisesAlert) {
  attack::MaliciousStrategyConfig cfg;
  cfg.p_normal = 0.0;  // always effective
  attack::MaliciousBeaconStrategy strategy(cfg, 7);
  const util::Vec2 true_pos{500, 500};
  for (sim::NodeId requester = 1; requester <= 500; ++requester) {
    const auto reply = strategy.craft_reply(requester, 1, true_pos);
    // The effective signal's ranging manipulation exceeds lie + e_max, so
    // the consistency check flags it for every geometry: alert, always.
    EXPECT_EQ(detector.evaluate(observe({450, 480}, true_pos, reply), rng),
              ProbeOutcome::kAlert);
  }
}

TEST_F(DetectorTest, NormalBehaviorNeverAlerts) {
  attack::MaliciousStrategyConfig cfg;
  cfg.p_normal = 1.0;
  attack::MaliciousBeaconStrategy strategy(cfg, 7);
  const util::Vec2 true_pos{500, 500};
  for (sim::NodeId requester = 1; requester <= 200; ++requester) {
    const auto reply = strategy.craft_reply(requester, 1, true_pos);
    EXPECT_EQ(detector.evaluate(observe({450, 480}, true_pos, reply), rng),
              ProbeOutcome::kConsistent);
  }
}

TEST_F(DetectorTest, FakeWormholeBehaviorIsIgnoredNotAlerted) {
  attack::MaliciousStrategyConfig cfg;
  cfg.p_normal = 0.0;
  cfg.p_fake_wormhole = 1.0;
  attack::MaliciousBeaconStrategy strategy(cfg, 7);
  const util::Vec2 true_pos{500, 500};
  for (sim::NodeId requester = 1; requester <= 200; ++requester) {
    const auto reply = strategy.craft_reply(requester, 1, true_pos);
    EXPECT_EQ(detector.evaluate(observe({450, 480}, true_pos, reply), rng),
              ProbeOutcome::kIgnoredWormholeReplay);
  }
}

TEST_F(DetectorTest, FakeLocalReplayBehaviorIsIgnoredNotAlerted) {
  attack::MaliciousStrategyConfig cfg;
  cfg.p_normal = 0.0;
  cfg.p_fake_local_replay = 1.0;
  attack::MaliciousBeaconStrategy strategy(cfg, 7);
  const util::Vec2 true_pos{500, 500};
  int ignored = 0;
  for (sim::NodeId requester = 1; requester <= 200; ++requester) {
    const auto reply = strategy.craft_reply(requester, 1, true_pos);
    const auto outcome =
        detector.evaluate(observe({450, 480}, true_pos, reply), rng);
    EXPECT_NE(outcome, ProbeOutcome::kAlert);
    if (outcome == ProbeOutcome::kIgnoredLocalReplay) ++ignored;
  }
  EXPECT_EQ(ignored, 200);
}

TEST_F(DetectorTest, DetectionRateMatchesPrFormula) {
  // Property check of P_r = 1 - (1 - P)^m over the full pipeline: probe a
  // malicious beacon with m distinct detecting IDs and count detections.
  const double P = 0.3;
  const std::size_t m = 4;
  attack::MaliciousStrategyConfig cfg =
      attack::MaliciousStrategyConfig::with_effectiveness(P);
  const util::Vec2 true_pos{500, 500};

  int detected_nodes = 0;
  constexpr int kDetectingNodes = 4000;
  sim::NodeId next_id = 1;
  for (int node = 0; node < kDetectingNodes; ++node) {
    attack::MaliciousBeaconStrategy strategy(
        cfg, static_cast<std::uint64_t>(1000 + node));
    bool detected = false;
    for (std::size_t k = 0; k < m; ++k) {
      const sim::NodeId detecting_id = next_id++;
      const auto reply = strategy.craft_reply(detecting_id, 1, true_pos);
      if (detector.evaluate(observe({460, 470}, true_pos, reply), rng) ==
          ProbeOutcome::kAlert)
        detected = true;
    }
    if (detected) ++detected_nodes;
  }
  const double pr_expected = 1.0 - std::pow(1.0 - P, static_cast<double>(m));
  EXPECT_NEAR(static_cast<double>(detected_nodes) / kDetectingNodes,
              pr_expected, 0.03);
}

TEST_F(DetectorTest, AccessorsExposeStages) {
  EXPECT_EQ(detector.consistency().max_error_ft(), 4.0);
  EXPECT_EQ(detector.replay_filter().config().rtt_x_max_cycles, kXmax);
}

}  // namespace
}  // namespace sld::detection
