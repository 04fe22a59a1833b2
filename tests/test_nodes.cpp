// Protocol-level tests of the node classes: message handling, MAC
// enforcement, nonce deduplication, and one-alert-per-target behaviour,
// driven through hand-built micro-networks rather than full trials.
#include "core/nodes.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "crypto/mac.hpp"
#include "sim/network.hpp"

namespace sld::core {
namespace {

/// Captures everything addressed to it.
class ProbeNode final : public sim::Node {
 public:
  using Node::Node;
  void on_message(const sim::Delivery& d) override { inbox.push_back(d); }
  std::vector<sim::Delivery> inbox;
};

/// A message MACed under the pairwise key of (src, dst).
sim::Message authed(const crypto::PairwiseKeyManager& keys, sim::NodeId src,
                    sim::NodeId dst, sim::MsgType type,
                    const sim::Payload& payload) {
  sim::Message m;
  m.src = src;
  m.dst = dst;
  m.type = type;
  m.payload = payload;
  m.mac = crypto::compute_mac(keys.pairwise_key(src, dst), src, dst, m.payload);
  return m;
}

/// A compromised beacon: it holds valid keys and answers every request with
/// a correctly MACed reply claiming `claim` and manipulating the ranging
/// signal by `range_manipulation_ft`.
class InsiderBeacon final : public sim::Node {
 public:
  InsiderBeacon(sim::NodeId id, util::Vec2 position, double range_ft,
                const crypto::PairwiseKeyManager& keys, util::Vec2 claim,
                double range_manipulation_ft = 0.0)
      : Node(id, position, range_ft),
        keys_(keys),
        claim_(claim),
        range_manipulation_ft_(range_manipulation_ft) {}
  bool is_beacon() const override { return true; }
  void on_message(const sim::Delivery& d) override {
    if (d.msg.type != sim::MsgType::kBeaconRequest) return;
    sim::BeaconReplyPayload reply;
    reply.nonce = sim::BeaconRequestPayload::parse(d.msg.payload).nonce;
    reply.claimed_position = claim_;
    reply.range_manipulation_ft = range_manipulation_ft_;
    channel().unicast(*this, authed(keys_, id(), d.msg.src,
                                    sim::MsgType::kBeaconReply,
                                    reply.serialize()));
  }

 private:
  const crypto::PairwiseKeyManager& keys_;
  util::Vec2 claim_;
  double range_manipulation_ft_;
};

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

class NodeProtocolTest : public ::testing::Test {
 protected:
  NodeProtocolTest() : ctx_(config_) {
    ctx_.scheduler = &net_.scheduler();
  }

  static SystemConfig make_config() {
    SystemConfig c;
    c.rtt_calibration_samples = 500;
    c.seed = 5;
    return c;
  }

  sim::Message authed(sim::NodeId src, sim::NodeId dst, sim::MsgType type,
                      const sim::Payload& payload) {
    return core::authed(ctx_.keys, src, dst, type, payload);
  }

  SystemConfig config_ = make_config();
  SystemContext ctx_;
  sim::Network net_{sim::ChannelConfig{}, 77};
};

TEST_F(NodeProtocolTest, BenignBeaconRepliesTruthfully) {
  auto& beacon = net_.emplace_node<BeaconNode>(
      1, util::Vec2{100, 100}, 150.0, ctx_, std::vector<sim::NodeId>{});
  auto& requester = net_.emplace_node<ProbeNode>(
      sim::kNonBeaconIdBase, util::Vec2{150, 100}, 150.0);

  sim::BeaconRequestPayload req;
  req.nonce = 777;
  net_.channel().unicast(requester, authed(requester.id(), beacon.id(),
                                           sim::MsgType::kBeaconRequest,
                                           req.serialize()));
  net_.run();

  ASSERT_EQ(requester.inbox.size(), 1u);
  const auto& reply_msg = requester.inbox[0].msg;
  EXPECT_EQ(reply_msg.type, sim::MsgType::kBeaconReply);
  EXPECT_EQ(reply_msg.src, beacon.id());
  // Authenticated under the pairwise key.
  EXPECT_TRUE(crypto::verify_mac(
      ctx_.keys.pairwise_key(reply_msg.src, reply_msg.dst), reply_msg.src,
      reply_msg.dst, reply_msg.payload, reply_msg.mac));
  const auto reply = sim::BeaconReplyPayload::parse(reply_msg.payload);
  EXPECT_EQ(reply.nonce, 777u);
  EXPECT_EQ(reply.claimed_position, beacon.position());
  EXPECT_EQ(reply.range_manipulation_ft, 0.0);
  EXPECT_EQ(reply.processing_bias_cycles, 0.0);
  EXPECT_FALSE(reply.fake_wormhole_indication);
}

TEST_F(NodeProtocolTest, BeaconDropsForgedRequests) {
  auto& beacon = net_.emplace_node<BeaconNode>(
      1, util::Vec2{100, 100}, 150.0, ctx_, std::vector<sim::NodeId>{});
  auto& attacker = net_.emplace_node<ProbeNode>(
      sim::kNonBeaconIdBase + 7, util::Vec2{150, 100}, 150.0);

  sim::BeaconRequestPayload req;
  req.nonce = 1;
  sim::Message forged;
  forged.src = attacker.id();
  forged.dst = beacon.id();
  forged.type = sim::MsgType::kBeaconRequest;
  forged.payload = req.serialize();
  forged.mac = 0xdeadbeef;  // wrong tag
  net_.channel().unicast(attacker, forged);
  net_.run();

  EXPECT_TRUE(attacker.inbox.empty());
  EXPECT_EQ(ctx_.metrics.mac_failures, 1u);
}

TEST_F(NodeProtocolTest, RequestToAnAliasIsAnsweredUnderTheRespondersOwnKey) {
  // A responder MACs its reply under the key that verified the request,
  // which is right only when the request named the responder's own ID.
  // One that reached it under another ID (an alias) is answered from the
  // real ID, under that pair's key, for both kinds of responding beacon.
  attack::MaliciousBeaconStrategy strategy(
      attack::MaliciousStrategyConfig::with_effectiveness(1.0), 99);
  auto& benign = net_.emplace_node<BeaconNode>(
      1, util::Vec2{100, 100}, 150.0, ctx_, std::vector<sim::NodeId>{});
  auto& mal = net_.emplace_node<MaliciousBeaconNode>(
      2, util::Vec2{120, 100}, 150.0, ctx_, std::move(strategy));
  auto& requester = net_.emplace_node<ProbeNode>(
      sim::kNonBeaconIdBase, util::Vec2{150, 100}, 150.0);
  const sim::NodeId aliases[] = {sim::kNonBeaconIdBase + 700,
                                 sim::kNonBeaconIdBase + 701};
  net_.add_alias(aliases[0], benign);
  net_.add_alias(aliases[1], mal);

  for (const sim::NodeId alias : aliases) {
    sim::BeaconRequestPayload req;
    req.nonce = alias;
    net_.channel().unicast(requester, authed(requester.id(), alias,
                                             sim::MsgType::kBeaconRequest,
                                             req.serialize()));
  }
  net_.run();

  EXPECT_EQ(ctx_.metrics.mac_failures, 0u);
  ASSERT_EQ(requester.inbox.size(), 2u);
  for (const auto& delivery : requester.inbox) {
    const auto& reply = delivery.msg;
    EXPECT_TRUE(reply.src == benign.id() || reply.src == mal.id());
    EXPECT_EQ(reply.dst, requester.id());
    EXPECT_TRUE(crypto::verify_mac(
        ctx_.keys.pairwise_key(reply.src, reply.dst), reply.src, reply.dst,
        reply.payload, reply.mac))
        << "reply from " << reply.src;
  }
}

TEST_F(NodeProtocolTest, MaliciousBeaconAppliesItsStrategy) {
  attack::MaliciousBeaconStrategy strategy(
      attack::MaliciousStrategyConfig::with_effectiveness(1.0), 99);
  auto& mal = net_.emplace_node<MaliciousBeaconNode>(
      2, util::Vec2{100, 100}, 150.0, ctx_, std::move(strategy));
  auto& requester = net_.emplace_node<ProbeNode>(
      sim::kNonBeaconIdBase + 1, util::Vec2{150, 100}, 150.0);

  sim::BeaconRequestPayload req;
  req.nonce = 5;
  net_.channel().unicast(requester, authed(requester.id(), mal.id(),
                                           sim::MsgType::kBeaconRequest,
                                           req.serialize()));
  net_.run();

  ASSERT_EQ(requester.inbox.size(), 1u);
  const auto reply =
      sim::BeaconReplyPayload::parse(requester.inbox[0].msg.payload);
  EXPECT_EQ(reply.nonce, 5u);
  // P = 1: the effective signal lies about location AND manipulates range.
  EXPECT_GT(util::distance(reply.claimed_position, mal.position()), 50.0);
  EXPECT_NE(reply.range_manipulation_ft, 0.0);
}

TEST_F(NodeProtocolTest, DetectingBeaconReportsEachTargetOnce) {
  // Benign beacon with 4 detecting IDs probes a fully malicious target:
  // all four probes detect, but exactly one alert reaches the station.
  std::vector<sim::NodeId> ids{sim::kNonBeaconIdBase + 100,
                               sim::kNonBeaconIdBase + 101,
                               sim::kNonBeaconIdBase + 102,
                               sim::kNonBeaconIdBase + 103};
  auto& detector = net_.emplace_node<BeaconNode>(
      1, util::Vec2{100, 100}, 150.0, ctx_, ids);
  for (const auto alias : ids) net_.add_alias(alias, detector);

  attack::MaliciousBeaconStrategy strategy(
      attack::MaliciousStrategyConfig::with_effectiveness(1.0), 42);
  auto& mal = net_.emplace_node<MaliciousBeaconNode>(
      2, util::Vec2{150, 100}, 150.0, ctx_, std::move(strategy));
  ctx_.truth[mal.id()] = BeaconTruth{mal.position(), true};

  detector.set_probe_targets({mal.id()});
  detector.start();
  net_.run();

  EXPECT_EQ(ctx_.metrics.probes_sent, 4u);
  EXPECT_EQ(ctx_.metrics.probe_replies, 4u);
  EXPECT_EQ(ctx_.metrics.consistency_flags, 4u);
  EXPECT_EQ(ctx_.metrics.alerts_submitted, 1u);
  EXPECT_EQ(ctx_.bs().alert_counter(mal.id()), 1u);
  EXPECT_EQ(detector.alerts_reported(), 1u);
}

TEST_F(NodeProtocolTest, DetectingBeaconStaysQuietForHonestTargets) {
  std::vector<sim::NodeId> ids{sim::kNonBeaconIdBase + 200,
                               sim::kNonBeaconIdBase + 201};
  auto& detector = net_.emplace_node<BeaconNode>(
      1, util::Vec2{100, 100}, 150.0, ctx_, ids);
  for (const auto alias : ids) net_.add_alias(alias, detector);
  auto& honest = net_.emplace_node<BeaconNode>(
      2, util::Vec2{150, 100}, 150.0, ctx_, std::vector<sim::NodeId>{});
  ctx_.truth[honest.id()] = BeaconTruth{honest.position(), false};

  detector.set_probe_targets({honest.id()});
  detector.start();
  net_.run();

  EXPECT_EQ(ctx_.metrics.probe_replies, 2u);
  EXPECT_EQ(ctx_.metrics.consistency_flags, 0u);
  EXPECT_EQ(ctx_.metrics.alerts_submitted, 0u);
}

TEST_F(NodeProtocolTest, SensorCollectsFiltersAndLocalizes) {
  auto& sensor = net_.emplace_node<SensorNode>(
      sim::kNonBeaconIdBase, util::Vec2{500, 500}, 150.0, ctx_);
  std::vector<sim::NodeId> beacon_ids;
  const util::Vec2 spots[] = {{450, 450}, {560, 470}, {480, 590}, {555, 555}};
  sim::NodeId next = 1;
  for (const auto& p : spots) {
    auto& b = net_.emplace_node<BeaconNode>(next, p, 150.0, ctx_,
                                            std::vector<sim::NodeId>{});
    ctx_.truth[b.id()] = BeaconTruth{p, false};
    beacon_ids.push_back(next++);
  }
  sensor.set_query_targets(beacon_ids);
  sensor.start();
  net_.run();
  sensor.finalize();

  EXPECT_EQ(ctx_.metrics.sensor_requests, 4u);
  EXPECT_EQ(ctx_.metrics.sensor_replies, 4u);
  ASSERT_TRUE(sensor.result().has_value());
  EXPECT_LT(util::distance(sensor.result()->position, sensor.position()),
            10.0);
  EXPECT_EQ(ctx_.metrics.sensors_localized, 1u);
}

TEST_F(NodeProtocolTest, SensorIgnoresDuplicateReplies) {
  // A wormhole between the sensor's area and the beacon's area makes the
  // reply arrive twice; the nonce table must accept only the first copy.
  auto& sensor = net_.emplace_node<SensorNode>(
      sim::kNonBeaconIdBase, util::Vec2{100, 100}, 150.0, ctx_);
  auto& beacon = net_.emplace_node<BeaconNode>(
      1, util::Vec2{150, 100}, 150.0, ctx_, std::vector<sim::NodeId>{});
  ctx_.truth[beacon.id()] = BeaconTruth{beacon.position(), false};
  sim::WormholeLink link;
  link.mouth_a = {120, 100};  // hears both endpoints
  link.mouth_b = {130, 100};
  link.exit_range_ft = 150.0;
  net_.channel().add_wormhole(link);

  sensor.set_query_targets({beacon.id()});
  sensor.start();
  net_.run();

  // The request and the reply each traverse direct + two tunnel paths,
  // but only one reply is counted.
  EXPECT_EQ(ctx_.metrics.sensor_replies, 1u);
}

TEST_F(NodeProtocolTest, DetectingBeaconJudgesDuplicatedReplyOnce) {
  // The same wormhole makes the probe and its reply arrive three times
  // each: nine copies of the reply under one nonce. Only the first is
  // judged.
  const sim::NodeId det_id = sim::kNonBeaconIdBase + 400;
  auto& detector = net_.emplace_node<BeaconNode>(
      1, util::Vec2{100, 100}, 150.0, ctx_, std::vector<sim::NodeId>{det_id});
  net_.add_alias(det_id, detector);
  auto& honest = net_.emplace_node<BeaconNode>(
      2, util::Vec2{150, 100}, 150.0, ctx_, std::vector<sim::NodeId>{});
  ctx_.truth[honest.id()] = BeaconTruth{honest.position(), false};
  sim::WormholeLink link;
  link.mouth_a = {120, 100};  // hears both endpoints
  link.mouth_b = {130, 100};
  link.exit_range_ft = 150.0;
  net_.channel().add_wormhole(link);

  detector.set_probe_targets({honest.id()});
  detector.start();
  net_.run();

  EXPECT_EQ(ctx_.metrics.probes_sent, 1u);
  EXPECT_EQ(ctx_.metrics.probe_replies, 1u);
}

TEST_F(NodeProtocolTest, ReplyToATimedOutRequestIsIgnored) {
  // The first timeout (15 ms) expires before the ~34 ms round trip, so
  // each request is retransmitted under a fresh nonce; the retry waits
  // 60 ms. The late reply to the first nonce matches nothing, and only
  // the retransmission's reply is judged.
  config_.arq.enabled = true;
  config_.arq.initial_timeout_ns = 15 * sim::kMillisecond;
  config_.arq.backoff_factor = 4.0;
  config_.arq.jitter_fraction = 0.0;
  config_.arq.max_retries = 1;
  const sim::NodeId det_id = sim::kNonBeaconIdBase + 500;
  auto& detector = net_.emplace_node<BeaconNode>(
      1, util::Vec2{100, 100}, 150.0, ctx_, std::vector<sim::NodeId>{det_id});
  net_.add_alias(det_id, detector);
  auto& honest = net_.emplace_node<BeaconNode>(
      2, util::Vec2{150, 100}, 150.0, ctx_, std::vector<sim::NodeId>{});
  ctx_.truth[honest.id()] = BeaconTruth{honest.position(), false};
  auto& sensor = net_.emplace_node<SensorNode>(
      sim::kNonBeaconIdBase, util::Vec2{120, 130}, 150.0, ctx_);

  detector.set_probe_targets({honest.id()});
  sensor.set_query_targets({honest.id()});
  detector.start();
  sensor.start();
  net_.run();

  EXPECT_EQ(ctx_.metrics.probes_sent, 1u);
  EXPECT_EQ(ctx_.metrics.probe_retransmissions, 1u);
  EXPECT_EQ(ctx_.metrics.probe_replies, 1u);
  EXPECT_EQ(ctx_.metrics.probe_no_response, 0u);
  EXPECT_EQ(ctx_.metrics.sensor_requests, 1u);
  EXPECT_EQ(ctx_.metrics.sensor_retransmissions, 1u);
  EXPECT_EQ(ctx_.metrics.sensor_replies, 1u);
  EXPECT_EQ(ctx_.metrics.sensor_no_response, 0u);
}

TEST_F(NodeProtocolTest, CrashForgetsRequestsInFlight) {
  // A detecting beacon and a sensor each crash and reboot while their
  // first request is in flight. The reply to it then matches nothing;
  // only the request sent after the reboot is answered.
  const sim::NodeId det_id = sim::kNonBeaconIdBase + 600;
  auto& detector = net_.emplace_node<BeaconNode>(
      1, util::Vec2{100, 100}, 150.0, ctx_, std::vector<sim::NodeId>{det_id});
  net_.add_alias(det_id, detector);
  auto& honest = net_.emplace_node<BeaconNode>(
      2, util::Vec2{150, 100}, 150.0, ctx_, std::vector<sim::NodeId>{});
  ctx_.truth[honest.id()] = BeaconTruth{honest.position(), false};
  auto& sensor = net_.emplace_node<SensorNode>(
      sim::kNonBeaconIdBase, util::Vec2{120, 130}, 150.0, ctx_);

  detector.set_probe_targets({honest.id()});
  sensor.set_query_targets({honest.id()});
  detector.start();
  sensor.start();
  // The first probe leaves at 5 ms, the first query at sensor phase + 5 ms.
  const auto down_for_1ms = [this](sim::Node& node, sim::SimTime at) {
    net_.scheduler().schedule_at(at, [&node] { node.crash_now(); });
    net_.scheduler().schedule_at(at + sim::kMillisecond,
                                 [&node] { node.reboot_now(); });
  };
  down_for_1ms(detector, 6 * sim::kMillisecond);
  down_for_1ms(sensor, config_.sensor_phase_start + 6 * sim::kMillisecond);
  net_.run();

  EXPECT_EQ(ctx_.metrics.probes_sent, 2u);
  EXPECT_EQ(ctx_.metrics.probe_replies, 1u);
  EXPECT_EQ(ctx_.metrics.sensor_requests, 2u);
  EXPECT_EQ(ctx_.metrics.sensor_replies, 1u);
}

TEST_F(NodeProtocolTest, ReplyFromAnotherBeaconAnswersNothing) {
  // The target records each request and stays silent. An insider beacon,
  // which shares a valid pairwise key with every requester, then answers
  // both requests with their captured nonces. Its replies pass the MAC
  // check, but it is not the beacon asked: neither the probe's nor the
  // query's reply may be judged or accepted.
  const sim::NodeId det_id = sim::kNonBeaconIdBase + 700;
  auto& detector = net_.emplace_node<BeaconNode>(
      1, util::Vec2{100, 100}, 150.0, ctx_, std::vector<sim::NodeId>{det_id});
  net_.add_alias(det_id, detector);
  auto& target =
      net_.emplace_node<ProbeNode>(2, util::Vec2{150, 100}, 150.0);
  const util::Vec2 insider_pos{130, 140};
  auto& insider = net_.emplace_node<ProbeNode>(3, insider_pos, 150.0);
  auto& sensor = net_.emplace_node<SensorNode>(
      sim::kNonBeaconIdBase, util::Vec2{120, 130}, 150.0, ctx_);
  ctx_.truth[insider.id()] = BeaconTruth{insider_pos, true};

  detector.set_probe_targets({target.id()});
  sensor.set_query_targets({target.id()});
  detector.start();
  sensor.start();
  net_.run();
  ASSERT_EQ(target.inbox.size(), 2u);
  for (const auto& request : target.inbox) {
    sim::BeaconReplyPayload reply;
    reply.nonce = sim::BeaconRequestPayload::parse(request.msg.payload).nonce;
    reply.claimed_position = {400, 400};
    net_.channel().unicast(insider, authed(insider.id(), request.msg.src,
                                           sim::MsgType::kBeaconReply,
                                           reply.serialize()));
  }
  net_.run();
  sensor.finalize();

  EXPECT_EQ(ctx_.metrics.probes_sent, 1u);
  EXPECT_EQ(ctx_.metrics.sensor_requests, 1u);
  EXPECT_EQ(ctx_.metrics.mac_failures, 0u);
  EXPECT_EQ(ctx_.metrics.probe_replies, 0u);
  EXPECT_EQ(ctx_.metrics.consistency_flags, 0u);
  EXPECT_EQ(ctx_.metrics.sensor_replies, 0u);
  EXPECT_TRUE(ctx_.metrics.affected_by_malicious.empty());
}

TEST_F(NodeProtocolTest, DetectingBeaconAlertsOnNonFiniteClaim) {
  // The insider's reply passes MAC verification, so only the consistency
  // check stands between its NaN claim and a "consistent" verdict.
  const sim::NodeId det_id = sim::kNonBeaconIdBase + 300;
  auto& detector = net_.emplace_node<BeaconNode>(
      1, util::Vec2{100, 100}, 150.0, ctx_, std::vector<sim::NodeId>{det_id});
  net_.add_alias(det_id, detector);
  auto& insider = net_.emplace_node<InsiderBeacon>(
      2, util::Vec2{150, 100}, 150.0, ctx_.keys, util::Vec2{kNaN, kNaN});

  detector.set_probe_targets({insider.id()});
  detector.start();
  net_.run();

  EXPECT_EQ(ctx_.metrics.mac_failures, 0u);
  EXPECT_EQ(ctx_.metrics.probe_replies, 1u);
  EXPECT_EQ(ctx_.metrics.consistency_flags, 1u);
  EXPECT_EQ(ctx_.metrics.alerts_submitted, 1u);
  EXPECT_EQ(ctx_.bs().alert_counter(insider.id()), 1u);
}

TEST_F(NodeProtocolTest, SensorDropsNonFiniteClaims) {
  auto& sensor = net_.emplace_node<SensorNode>(
      sim::kNonBeaconIdBase, util::Vec2{500, 500}, 150.0, ctx_);
  std::vector<sim::NodeId> beacon_ids;
  const util::Vec2 spots[] = {{450, 450}, {560, 470}, {480, 590}, {555, 555}};
  sim::NodeId next = 1;
  for (const auto& p : spots) {
    auto& b = net_.emplace_node<BeaconNode>(next, p, 150.0, ctx_,
                                            std::vector<sim::NodeId>{});
    ctx_.truth[b.id()] = BeaconTruth{p, false};
    beacon_ids.push_back(next++);
  }
  auto& insider = net_.emplace_node<InsiderBeacon>(
      next, util::Vec2{530, 440}, 150.0, ctx_.keys, util::Vec2{kNaN, 440.0});
  beacon_ids.push_back(insider.id());
  sensor.set_query_targets(beacon_ids);
  sensor.start();
  net_.run();
  sensor.finalize();

  // Only the four honest replies count; the sensor localizes from them.
  EXPECT_EQ(ctx_.metrics.sensor_requests, 5u);
  EXPECT_EQ(ctx_.metrics.sensor_replies, 4u);
  ASSERT_TRUE(sensor.result().has_value());
  EXPECT_LT(util::distance(sensor.result()->position, sensor.position()),
            10.0);
}

TEST_F(NodeProtocolTest, SensorDropsInfiniteMeasuredDistance) {
  // The insider claims its true position but manipulates its signal by
  // +Inf ft, so the sensor measures an infinite distance. That reply must
  // not become a reference (or reach the residual histogram): one such
  // reference would turn the fix into (nan, nan).
  auto& sensor = net_.emplace_node<SensorNode>(
      sim::kNonBeaconIdBase, util::Vec2{500, 500}, 150.0, ctx_);
  std::vector<sim::NodeId> beacon_ids;
  const util::Vec2 spots[] = {{450, 450}, {560, 470}, {480, 590}};
  sim::NodeId next = 1;
  for (const auto& p : spots) {
    auto& b = net_.emplace_node<BeaconNode>(next, p, 150.0, ctx_,
                                            std::vector<sim::NodeId>{});
    ctx_.truth[b.id()] = BeaconTruth{p, false};
    beacon_ids.push_back(next++);
  }
  const util::Vec2 insider_pos{530, 440};
  auto& insider = net_.emplace_node<InsiderBeacon>(
      next, insider_pos, 150.0, ctx_.keys, insider_pos,
      std::numeric_limits<double>::infinity());
  ctx_.truth[insider.id()] = BeaconTruth{insider_pos, true};
  beacon_ids.push_back(insider.id());
  sensor.set_query_targets(beacon_ids);
  sensor.start();
  net_.run();
  sensor.finalize();

  EXPECT_EQ(ctx_.metrics.mac_failures, 0u);
  EXPECT_EQ(ctx_.metrics.sensor_requests, 4u);
  EXPECT_EQ(ctx_.metrics.sensor_replies, 3u);
  EXPECT_EQ(ctx_.residual_hist->count(), 3u);
  ASSERT_TRUE(sensor.result().has_value());
  EXPECT_LT(util::distance(sensor.result()->position, sensor.position()),
            10.0);
}

}  // namespace
}  // namespace sld::core
