#include "sim/channel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/deployment.hpp"
#include "sim/network.hpp"

namespace sld::sim {
namespace {

/// Records every delivery it receives.
class RecorderNode final : public Node {
 public:
  using Node::Node;
  void on_message(const Delivery& d) override { deliveries.push_back(d); }
  std::vector<Delivery> deliveries;
};

Message make_msg(NodeId src, NodeId dst) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.type = MsgType::kAppData;
  m.payload = {1, 2, 3};
  return m;
}

class ChannelTest : public ::testing::Test {
 protected:
  Network net{ChannelConfig{}, 99};
};

TEST_F(ChannelTest, DirectDeliveryWithinRange) {
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{100, 0}, 150.0);
  net.channel().unicast(a, make_msg(1, 2));
  net.run();
  ASSERT_EQ(b.deliveries.size(), 1u);
  EXPECT_EQ(b.deliveries[0].msg.src, 1u);
  EXPECT_FALSE(b.deliveries[0].ctx.via_wormhole);
  EXPECT_EQ(b.deliveries[0].ctx.radiating_position, (util::Vec2{0, 0}));
}

TEST_F(ChannelTest, OutOfRangeIsDropped) {
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{151, 0}, 150.0);
  net.channel().unicast(a, make_msg(1, 2));
  net.run();
  EXPECT_TRUE(b.deliveries.empty());
  EXPECT_EQ(net.channel().stats().out_of_range, 1u);
}

TEST_F(ChannelTest, DeliveryDelayIncludesAirtime) {
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{100, 0}, 150.0);
  net.channel().unicast(a, make_msg(1, 2));
  net.run();
  ASSERT_EQ(b.deliveries.size(), 1u);
  // 3 payload + 16 overhead bytes at 19.2 kbps ~ 7.9 ms.
  EXPECT_GE(b.deliveries[0].rx_time, 7 * kMillisecond);
  EXPECT_LE(b.deliveries[0].rx_time, 9 * kMillisecond);
}

TEST_F(ChannelTest, WormholeTunnelsToFarNode) {
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{100, 100}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{800, 700}, 150.0);
  WormholeLink link;
  link.mouth_a = {100, 100};
  link.mouth_b = {800, 700};
  link.exit_range_ft = 150.0;
  net.channel().add_wormhole(link);
  net.channel().unicast(a, make_msg(1, 2));
  net.run();
  ASSERT_EQ(b.deliveries.size(), 1u);
  EXPECT_TRUE(b.deliveries[0].ctx.via_wormhole);
  EXPECT_TRUE(b.deliveries[0].ctx.is_replay);
  // RSSI-relevant: the energy radiates from the exit mouth.
  EXPECT_EQ(b.deliveries[0].ctx.radiating_position, (util::Vec2{800, 700}));
  EXPECT_EQ(net.channel().stats().wormhole_deliveries, 1u);
}

TEST_F(ChannelTest, WormholeIsBidirectional) {
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{100, 100}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{800, 700}, 150.0);
  WormholeLink link;
  link.mouth_a = {100, 100};
  link.mouth_b = {800, 700};
  link.exit_range_ft = 150.0;
  net.channel().add_wormhole(link);
  net.channel().unicast(b, make_msg(2, 1));
  net.run();
  ASSERT_EQ(a.deliveries.size(), 1u);
  EXPECT_TRUE(a.deliveries[0].ctx.via_wormhole);
}

TEST_F(ChannelTest, WormholeDeliveryCarriesExtraDelay) {
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{100, 100}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{800, 700}, 150.0);
  WormholeLink link;
  link.mouth_a = {100, 100};
  link.mouth_b = {800, 700};
  link.exit_range_ft = 150.0;
  link.extra_delay_cycles = 5000.0;
  net.channel().add_wormhole(link);
  net.channel().unicast(a, make_msg(1, 2));
  net.run();
  ASSERT_EQ(b.deliveries.size(), 1u);
  EXPECT_DOUBLE_EQ(b.deliveries[0].ctx.extra_delay_cycles, 5000.0);
}

TEST_F(ChannelTest, NearbyNodeGetsAllCopies) {
  // Receiver in range of the sender AND of both wormhole mouths: the
  // direct copy plus one tunnelled copy per traversal direction arrive
  // (protocols dedup by nonce).
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{100, 0}, 150.0);
  WormholeLink link;
  link.mouth_a = {10, 0};
  link.mouth_b = {120, 0};
  link.exit_range_ft = 150.0;
  net.channel().add_wormhole(link);
  net.channel().unicast(a, make_msg(1, 2));
  net.run();
  ASSERT_EQ(b.deliveries.size(), 3u);
  int tunneled = 0;
  for (const auto& d : b.deliveries) tunneled += d.ctx.via_wormhole ? 1 : 0;
  EXPECT_EQ(tunneled, 2);
}

TEST_F(ChannelTest, LossyChannelDropsRoughlyAtRate) {
  ChannelConfig cfg;
  cfg.loss_probability = 0.5;
  Network lossy{cfg, 7};
  auto& a = lossy.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
  auto& b = lossy.emplace_node<RecorderNode>(2, util::Vec2{10, 0}, 150.0);
  for (int i = 0; i < 1000; ++i) lossy.channel().unicast(a, make_msg(1, 2));
  lossy.run();
  EXPECT_GT(b.deliveries.size(), 400u);
  EXPECT_LT(b.deliveries.size(), 600u);
}

class Jammer final : public RadioObserver {
 public:
  explicit Jammer(util::Vec2 pos, bool suppress)
      : pos_(pos), suppress_(suppress) {}
  bool on_overhear(const Message&, const TxContext&) override {
    ++heard;
    return suppress_;
  }
  util::Vec2 observer_position() const override { return pos_; }
  int heard = 0;

 private:
  util::Vec2 pos_;
  bool suppress_;
};

TEST_F(ChannelTest, EavesdropperHearsWithoutSuppressing) {
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{100, 0}, 150.0);
  Jammer ears({50, 0}, /*suppress=*/false);
  net.channel().add_observer(&ears);
  net.channel().unicast(a, make_msg(1, 2));
  net.run();
  EXPECT_EQ(ears.heard, 1);
  EXPECT_EQ(b.deliveries.size(), 1u);
}

TEST_F(ChannelTest, JammerSuppressesDelivery) {
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{100, 0}, 150.0);
  Jammer jam({50, 0}, /*suppress=*/true);
  net.channel().add_observer(&jam);
  net.channel().unicast(a, make_msg(1, 2));
  net.run();
  EXPECT_TRUE(b.deliveries.empty());
  EXPECT_EQ(net.channel().stats().suppressed, 1u);
}

TEST_F(ChannelTest, ObserverOutOfRangeHearsNothing) {
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
  net.emplace_node<RecorderNode>(2, util::Vec2{100, 0}, 150.0);
  Jammer far({1000, 1000}, /*suppress=*/true);
  net.channel().add_observer(&far);
  net.channel().unicast(a, make_msg(1, 2));
  net.run();
  EXPECT_EQ(far.heard, 0);
}

TEST_F(ChannelTest, AliasRoutesToOwner) {
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{100, 0}, 150.0);
  net.add_alias(5000, b);
  net.channel().unicast(a, make_msg(1, 5000));
  net.run();
  ASSERT_EQ(b.deliveries.size(), 1u);
  EXPECT_EQ(b.deliveries[0].msg.dst, 5000u);
}

TEST_F(ChannelTest, AliasCollisionRejected) {
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
  EXPECT_THROW(net.add_alias(1, a), std::invalid_argument);
}

TEST_F(ChannelTest, FindResolvesDenseRunsAliasesAndFarIds) {
  // Beacon-range and sensor-range IDs index dense runs; a detecting-ID
  // alias and a real ID far from both runs resolve through the map.
  auto& beacon = net.emplace_node<RecorderNode>(kFirstBeaconId + 4,
                                                util::Vec2{0, 0}, 150.0);
  auto& sensor = net.emplace_node<RecorderNode>(kNonBeaconIdBase + 2,
                                                util::Vec2{50, 0}, 150.0);
  auto& far = net.emplace_node<RecorderNode>(0x7ffffff0, util::Vec2{100, 0},
                                             150.0);
  const NodeId alias = 0x40000000;  // a detecting ID of the beacon
  net.add_alias(alias, beacon);
  const Channel& ch = net.channel();
  EXPECT_EQ(ch.find(beacon.id()), &beacon);
  EXPECT_EQ(ch.find(sensor.id()), &sensor);
  EXPECT_EQ(ch.find(far.id()), &far);
  EXPECT_EQ(ch.find(alias), &beacon);
  EXPECT_EQ(ch.find(kFirstBeaconId + 3), nullptr);    // a hole in a run
  EXPECT_EQ(ch.find(kNonBeaconIdBase + 3), nullptr);  // past a run's end
  EXPECT_EQ(ch.find(0x7ffffff1), nullptr);
  EXPECT_THROW(net.emplace_node<RecorderNode>(0x7ffffff0, util::Vec2{}, 1.0),
               std::invalid_argument);
  EXPECT_THROW(net.add_alias(sensor.id(), far), std::invalid_argument);

  // Traffic to the alias and to the far ID arrives; the alias's radio
  // activity is its owner's.
  net.channel().unicast(sensor, make_msg(sensor.id(), alias));
  net.channel().unicast(beacon, make_msg(beacon.id(), far.id()));
  net.run();
  ASSERT_EQ(beacon.deliveries.size(), 1u);
  EXPECT_EQ(beacon.deliveries[0].msg.dst, alias);
  EXPECT_EQ(far.deliveries.size(), 1u);
  EXPECT_EQ(ch.node_radio(beacon.id()).packets_received, 1u);
  EXPECT_EQ(ch.node_radio(far.id()).packets_received, 1u);
  const NodeRadioStats of_alias = ch.node_radio(alias);
  EXPECT_EQ(of_alias.packets_sent + of_alias.packets_received +
                of_alias.bytes_sent + of_alias.bytes_received,
            0u);

  // Network resolves real IDs through the same table; an alias is no node.
  EXPECT_EQ(net.node(far.id()), &far);
  EXPECT_EQ(net.node(alias), nullptr);
  EXPECT_EQ(net.connected_nodes(far.id()).size(), 2u);
  EXPECT_THROW(net.connected_nodes(alias), std::invalid_argument);
}

TEST_F(ChannelTest, UnicastFromUnregisteredNodeThrows) {
  net.emplace_node<RecorderNode>(2, util::Vec2{100, 0}, 150.0);
  RecorderNode stranger(1, util::Vec2{0, 0}, 150.0);
  EXPECT_THROW(net.channel().unicast(stranger, make_msg(1, 2)),
               std::logic_error);
  // A node of another network that shares a registered node's ID is a
  // stranger too.
  Network other;
  auto& twin = other.emplace_node<RecorderNode>(2, util::Vec2{0, 0}, 150.0);
  EXPECT_THROW(net.channel().unicast(twin, make_msg(2, 2)), std::logic_error);
  EXPECT_EQ(net.channel().stats().transmissions, 0u);
  EXPECT_EQ(net.channel().total_radio().packets_sent, 0u);
}

TEST_F(ChannelTest, ConnectedCombinesDirectAndWormhole) {
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{100, 100}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{800, 700}, 150.0);
  auto& c = net.emplace_node<RecorderNode>(3, util::Vec2{150, 100}, 150.0);
  EXPECT_FALSE(net.channel().connected(a, b));
  EXPECT_TRUE(net.channel().connected(a, c));
  WormholeLink link;
  link.mouth_a = {100, 100};
  link.mouth_b = {800, 700};
  link.exit_range_ft = 150.0;
  net.channel().add_wormhole(link);
  EXPECT_TRUE(net.channel().connected(a, b));
}

TEST_F(ChannelTest, PacketAirtimeScalesWithSize) {
  EXPECT_GT(net.channel().packet_airtime_ns(100),
            net.channel().packet_airtime_ns(10));
  EXPECT_DOUBLE_EQ(net.channel().packet_airtime_cycles(0),
                   16.0 * 8.0 * kCyclesPerBit);
}

TEST_F(ChannelTest, PerNodeRadioAccounting) {
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{100, 0}, 150.0);
  net.channel().unicast(a, make_msg(1, 2));
  net.channel().unicast(a, make_msg(1, 2));
  net.channel().unicast(b, make_msg(2, 1));
  net.run();

  const auto ra = net.channel().node_radio(1);
  const auto rb = net.channel().node_radio(2);
  EXPECT_EQ(ra.packets_sent, 2u);
  EXPECT_EQ(ra.packets_received, 1u);
  EXPECT_EQ(rb.packets_sent, 1u);
  EXPECT_EQ(rb.packets_received, 2u);
  // 3-byte payload + 16 bytes framing per packet.
  EXPECT_EQ(ra.bytes_sent, 2u * 19u);
  EXPECT_EQ(ra.bytes_received, 19u);
  EXPECT_GT(ra.energy_uj(), rb.energy_uj());  // tx costs more than rx
  // Unknown node: zeros.
  EXPECT_EQ(net.channel().node_radio(99).packets_sent, 0u);
}

TEST_F(ChannelTest, InjectRequiresValidRange) {
  TxContext ctx;
  ctx.radiating_position = {0, 0};
  ctx.radiating_range = 0.0;
  EXPECT_THROW(net.channel().inject(ctx, make_msg(1, 2)),
               std::invalid_argument);
}

TEST_F(ChannelTest, DuplicateNodeIdRejected) {
  net.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
  EXPECT_THROW(net.emplace_node<RecorderNode>(1, util::Vec2{1, 1}, 150.0),
               std::invalid_argument);
}

/// Answers every delivery with a reply carrying the received payload,
/// sent from inside on_message — the in-flight slot it is reading stays
/// in use while the reply acquires another.
class EchoNode final : public Node {
 public:
  using Node::Node;
  void on_message(const Delivery& d) override {
    received.push_back(d.msg.payload);
    Message reply = d.msg;
    reply.src = id();
    reply.dst = d.msg.src;
    channel().unicast(*this, reply);
    // The delivery this handler reads must be intact after the send.
    intact_after_send = intact_after_send && d.msg.payload == received.back();
  }
  std::vector<Payload> received;
  bool intact_after_send = true;
};

/// Packet `i`'s payload: 2 to 48 bytes, the first two naming `i`.
Payload stamped(int i) {
  const auto n = static_cast<std::size_t>(2 + i % 47);
  Payload p;
  p.push_back(static_cast<std::uint8_t>(i & 0xff));
  p.push_back(static_cast<std::uint8_t>(i >> 8));
  for (std::size_t k = 2; k < n; ++k)
    p.push_back(static_cast<std::uint8_t>(i * 31 + static_cast<int>(k)));
  return p;
}

/// True when `payloads` is exactly stamped(0) .. stamped(n - 1), each once,
/// in any order (lengths differ, so arrival order is not send order).
bool each_stamp_once(const std::vector<Payload>& payloads, int n) {
  std::vector<int> seen(static_cast<std::size_t>(n), 0);
  for (const Payload& p : payloads) {
    if (p.size() < 2) return false;
    const int i = p[0] | (p[1] << 8);
    if (i >= n || !(p == stamped(i))) return false;
    ++seen[static_cast<std::size_t>(i)];
  }
  return std::all_of(seen.begin(), seen.end(), [](int c) { return c == 1; });
}

TEST_F(ChannelTest, HandlerSendingWhileDeliveriesArePendingSeesIntactPayloads) {
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
  auto& echo = net.emplace_node<EchoNode>(2, util::Vec2{60, 0}, 150.0);
  // Enough packets in flight at once to span several pool chunks.
  const int kPackets = 1500;
  for (int i = 0; i < kPackets; ++i) {
    Message m = make_msg(1, 2);
    m.payload = stamped(i);
    net.channel().unicast(a, m);
  }
  net.run();
  EXPECT_TRUE(echo.intact_after_send);
  EXPECT_TRUE(each_stamp_once(echo.received, kPackets));
  std::vector<Payload> echoed;
  for (const auto& d : a.deliveries) echoed.push_back(d.msg.payload);
  EXPECT_TRUE(each_stamp_once(echoed, kPackets));
}

}  // namespace
}  // namespace sld::sim
