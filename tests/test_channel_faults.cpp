// Fault-injection coverage: i.i.d. and bursty loss, duplication,
// corruption-rejected-by-MAC, crash windows (and a chained timer series
// across one), delay jitter, and the ARQ timeout schedule — all with
// deterministic seeds.
#include "sim/faults.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/invariant.hpp"
#include "crypto/mac.hpp"
#include "sim/arq.hpp"
#include "sim/channel.hpp"
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

ChannelConfig with_faults(FaultPlan plan) {
  ChannelConfig cc;
  cc.faults = std::move(plan);
  return cc;
}

TEST(FaultPlan, DefaultPlanInjectsNothing) {
  EXPECT_FALSE(FaultPlan{}.any_enabled());
  Network net{ChannelConfig{}, 42};
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{50, 0}, 150.0);
  for (int i = 0; i < 100; ++i) net.channel().unicast(a, make_msg(1, 2));
  net.run();
  EXPECT_EQ(b.deliveries.size(), 100u);
  const auto& s = net.channel().stats();
  EXPECT_EQ(s.dropped_by_fault, 0u);
  EXPECT_EQ(s.duplicates, 0u);
  EXPECT_EQ(s.corrupted, 0u);
  EXPECT_EQ(s.crashed_drops, 0u);
}

TEST(FaultPlan, ZeroFaultPlanMatchesDefaultDeliveryTimesExactly) {
  // An explicitly constructed all-off plan must leave the event sequence
  // bit-for-bit identical to the default configuration.
  FaultPlan off;
  off.loss_probability = 0.0;
  off.burst = GilbertElliottConfig{};
  Network plain{ChannelConfig{}, 7};
  Network planned{with_faults(off), 7};
  std::vector<SimTime> rx_plain, rx_planned;
  for (Network* net : {&plain, &planned}) {
    auto& a = net->emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
    auto& b = net->emplace_node<RecorderNode>(2, util::Vec2{120, 30}, 150.0);
    for (int i = 0; i < 50; ++i) net->channel().unicast(a, make_msg(1, 2));
    net->run();
    auto& out = net == &plain ? rx_plain : rx_planned;
    for (const auto& d : b.deliveries) out.push_back(d.rx_time);
  }
  EXPECT_EQ(rx_plain, rx_planned);
}

TEST(FaultPlan, IidLossDropsRoughlyAtRate) {
  FaultPlan plan;
  plan.loss_probability = 0.3;
  Network net{with_faults(plan), 11};
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{10, 0}, 150.0);
  for (int i = 0; i < 2000; ++i) net.channel().unicast(a, make_msg(1, 2));
  net.run();
  const auto& s = net.channel().stats();
  EXPECT_EQ(s.dropped_by_fault + b.deliveries.size(), 2000u);
  EXPECT_GT(s.dropped_by_fault, 480u);  // ~600 expected
  EXPECT_LT(s.dropped_by_fault, 720u);
}

TEST(FaultPlan, GilbertElliottAveragesToTargetAndBursts) {
  const auto ge = GilbertElliottConfig::for_average_loss(0.2, 5.0);
  EXPECT_NEAR(ge.p_enter_bad / (ge.p_enter_bad + ge.p_exit_bad), 0.2, 1e-12);

  FaultPlan plan;
  plan.burst = ge;
  Network net{with_faults(plan), 13};
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{10, 0}, 150.0);
  const int kPackets = 5000;
  // Send strictly sequentially so the per-link chain sees an ordered
  // stream; tag packets through the payload to recover the drop pattern.
  for (int i = 0; i < kPackets; ++i) {
    Message m = make_msg(1, 2);
    m.payload = {static_cast<std::uint8_t>(i & 0xff),
                 static_cast<std::uint8_t>((i >> 8) & 0xff)};
    net.channel().unicast(a, m);
  }
  net.run();
  const double loss_rate =
      static_cast<double>(net.channel().stats().dropped_by_fault) / kPackets;
  EXPECT_GT(loss_rate, 0.12);
  EXPECT_LT(loss_rate, 0.28);

  // Losses must arrive in bursts: the longest run of consecutive drops
  // should far exceed what i.i.d. loss at the same rate would produce.
  std::vector<bool> delivered(kPackets, false);
  for (const auto& d : b.deliveries) {
    const int seq = d.msg.payload[0] | (d.msg.payload[1] << 8);
    delivered[static_cast<std::size_t>(seq)] = true;
  }
  int longest_run = 0, run = 0;
  for (int i = 0; i < kPackets; ++i) {
    run = delivered[static_cast<std::size_t>(i)] ? 0 : run + 1;
    longest_run = std::max(longest_run, run);
  }
  EXPECT_GE(longest_run, 8);  // mean burst 5 => runs well beyond iid's ~3
}

TEST(FaultPlan, DuplicationDeliversExtraCopies) {
  FaultPlan plan;
  plan.duplicate_probability = 1.0;
  Network net{with_faults(plan), 17};
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{50, 0}, 150.0);
  for (int i = 0; i < 10; ++i) net.channel().unicast(a, make_msg(1, 2));
  net.run();
  EXPECT_EQ(b.deliveries.size(), 20u);
  EXPECT_EQ(net.channel().stats().duplicates, 10u);
  // Duplicates trail the originals by one packet air time.
  EXPECT_GT(b.deliveries.back().rx_time, b.deliveries.front().rx_time);
}

TEST(FaultPlan, CorruptionIsRejectedByMac) {
  FaultPlan plan;
  plan.corruption_probability = 1.0;
  Network net{with_faults(plan), 19};
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{50, 0}, 150.0);

  crypto::Key128 key{0x12, 0x34, 0x56, 0x78};
  Message m = make_msg(1, 2);
  m.mac = crypto::compute_mac(key, m.src, m.dst, m.payload);
  ASSERT_TRUE(crypto::verify_mac(key, m.src, m.dst, m.payload, m.mac));

  net.channel().unicast(a, m);
  net.run();
  ASSERT_EQ(b.deliveries.size(), 1u);
  EXPECT_EQ(net.channel().stats().corrupted, 1u);
  const auto& rx = b.deliveries[0].msg;
  // Same length, flipped content: authentication must fail.
  EXPECT_EQ(rx.payload.size(), m.payload.size());
  EXPECT_FALSE(crypto::verify_mac(key, rx.src, rx.dst, rx.payload, rx.mac));
}

/// Verifies the MAC of every delivery and answers each with a freshly
/// MACed copy sent from inside on_message, while other deliveries (some
/// corrupted, some duplicated) are still in flight.
class VerifyingEchoNode final : public Node {
 public:
  VerifyingEchoNode(NodeId id, util::Vec2 pos, double range,
                    crypto::Key128 key)
      : Node(id, pos, range), key_(key) {}
  void on_message(const Delivery& d) override {
    const bool ok = crypto::verify_mac(key_, d.msg.src, d.msg.dst,
                                       d.msg.payload, d.msg.mac);
    ++(ok ? verified : rejected);
    if (!ok || d.msg.type != MsgType::kAppData) return;
    Message reply = d.msg;
    reply.type = MsgType::kBeaconReply;
    reply.src = id();
    reply.dst = d.msg.src;
    reply.mac = crypto::compute_mac(key_, reply.src, reply.dst, reply.payload);
    channel().unicast(*this, reply);
    intact_after_send = intact_after_send &&
                        crypto::verify_mac(key_, d.msg.src, d.msg.dst,
                                           d.msg.payload, d.msg.mac);
  }
  std::uint64_t verified = 0;
  std::uint64_t rejected = 0;
  bool intact_after_send = true;

 private:
  crypto::Key128 key_;
};

TEST(FaultPlan, CorruptedAndDuplicatedCopiesKeepConservationAndMacVerdicts) {
  FaultPlan plan;
  plan.loss_probability = 0.1;
  plan.duplicate_probability = 0.3;
  plan.corruption_probability = 0.3;
  plan.max_extra_delay_ns = 5 * kMillisecond;
  Network net{with_faults(plan), 29};
  const crypto::Key128 key{0x42, 0x17};
  auto& a =
      net.emplace_node<VerifyingEchoNode>(1, util::Vec2{0, 0}, 150.0, key);
  auto& b =
      net.emplace_node<VerifyingEchoNode>(2, util::Vec2{50, 0}, 150.0, key);
  const int kPackets = 2000;
  for (int i = 0; i < kPackets; ++i) {
    Message m = make_msg(1, 2);
    m.payload.push_back(static_cast<std::uint8_t>(i));
    m.payload.push_back(static_cast<std::uint8_t>(i >> 8));
    m.mac = crypto::compute_mac(key, m.src, m.dst, m.payload);
    net.channel().unicast(a, m);
  }
  net.run();
  const auto& s = net.channel().stats();
  EXPECT_GT(s.corrupted, 0u);
  EXPECT_GT(s.duplicates, 0u);
  EXPECT_GT(s.dropped_by_fault, 0u);
  EXPECT_EQ(s.deliveries + s.dropped_by_fault + s.crashed_rx_drops +
                s.partition_drops,
            s.delivery_attempts + s.duplicates);
  // Every corrupted copy, and only those, fails authentication; a
  // duplicate is a clean copy of the original.
  EXPECT_EQ(a.rejected + b.rejected, s.corrupted);
  EXPECT_EQ(a.verified + b.verified, s.deliveries - s.corrupted);
  EXPECT_TRUE(b.intact_after_send);
}

TEST(FaultPlan, CrashWindowSilencesNodeBothWays) {
  FaultPlan plan;
  plan.crashes.push_back(CrashWindow{2, 0, kSecond});
  Network net{with_faults(plan), 23};
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{50, 0}, 150.0);

  // Delivery would arrive inside the window: receiver is down.
  net.channel().unicast(a, make_msg(1, 2));
  // A crashed node cannot send either.
  net.scheduler().schedule_at(kSecond / 2, [&]() {
    net.channel().unicast(b, make_msg(2, 1));
  });
  // After reboot traffic flows again.
  net.scheduler().schedule_at(2 * kSecond, [&]() {
    net.channel().unicast(a, make_msg(1, 2));
  });
  net.run();
  EXPECT_EQ(b.deliveries.size(), 1u);
  EXPECT_TRUE(a.deliveries.empty());
  EXPECT_EQ(net.channel().stats().crashed_drops, 2u);
}

TEST(FaultPlan, PartitionBlocksCrossCutTrafficBothWaysThenHeals) {
  FaultPlan plan;
  plan.partitions.push_back(PartitionWindow{{1}, 0, kSecond});
  Network net{with_faults(plan), 37};
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{50, 0}, 150.0);
  auto& c = net.emplace_node<RecorderNode>(3, util::Vec2{0, 50}, 150.0);
  net.start_all();
  // Inside the window: anything crossing the {1} | {2, 3} cut dies in
  // both directions; traffic within one side flows.
  net.channel().unicast(a, make_msg(1, 2));
  net.channel().unicast(b, make_msg(2, 1));
  net.channel().unicast(b, make_msg(2, 3));
  // After the heal the same cut-crossing links deliver.
  net.scheduler().schedule_at(2 * kSecond, [&]() {
    net.channel().unicast(a, make_msg(1, 2));
    net.channel().unicast(b, make_msg(2, 1));
  });
  net.run();
  EXPECT_EQ(c.deliveries.size(), 1u);
  EXPECT_EQ(b.deliveries.size(), 1u);
  EXPECT_EQ(a.deliveries.size(), 1u);
  const auto& s = net.channel().stats();
  EXPECT_EQ(s.partition_drops, 2u);
  EXPECT_EQ(s.dropped_by_fault, 0u);
  // Conservation across the new outcome class.
  EXPECT_EQ(s.deliveries + s.dropped_by_fault + s.crashed_rx_drops +
                s.partition_drops,
            s.delivery_attempts + s.duplicates);
}

/// Node whose owned timers count their firings; lets tests observe the
/// crash/reboot timer fence from outside.
class TimerNode final : public Node {
 public:
  using Node::Node;
  void on_message(const Delivery&) override {}
  void arm(SimTime delay) {
    schedule_timer(delay, [this]() { ++fired; });
  }
  int fired = 0;
};

TEST(FaultPlan, CrashDropsOwnedTimersAndRebootFencesOldEpoch) {
  const auto violations_before = check::invariant_failure_count();
  FaultPlan plan;
  plan.crashes.push_back(CrashWindow{4, kSecond, 2 * kSecond});
  Network net{with_faults(plan), 41};
  auto& n = net.emplace_node<TimerNode>(4, util::Vec2{0, 0}, 150.0);
  net.start_all();
  // Armed before the crash, due inside the window: dropped (node down).
  n.arm(kSecond + kMillisecond);
  // Armed before the crash, due after the reboot: dropped too — volatile
  // timer state does not survive the crash (stale boot epoch).
  n.arm(3 * kSecond);
  // Armed after the reboot: fires normally.
  net.scheduler().schedule_at(2 * kSecond + kMillisecond,
                              [&]() { n.arm(kMillisecond); });
  net.run();
  EXPECT_EQ(n.fired, 1);
  EXPECT_EQ(n.timers_dropped(), 2u);
  EXPECT_EQ(n.boot_epoch(), 1u);
  // The drops were clean refusals, not invariant violations: no timer
  // body ever ran while its owner was down.
  EXPECT_EQ(check::invariant_failure_count(), violations_before);
}

/// Plans kCount timers kStep apart, from one step after now, at start and
/// again at every reboot, like a beacon's probes: as one chained series or
/// up front, one timer each. Records when each one fires.
class SeriesNode final : public Node {
 public:
  static constexpr SimTime kStep = 100 * kMillisecond;
  static constexpr std::size_t kCount = 30;

  SeriesNode(NodeId id, bool chained)
      : Node(id, util::Vec2{0, 0}, 150.0), chained_(chained) {}
  void on_message(const Delivery&) override {}
  void start() override { plan(); }
  void on_reboot(SimTime, SimTime) override { plan(); }

  std::vector<std::pair<SimTime, std::size_t>> fired;

 private:
  void plan() {
    const auto fire = [this](std::size_t k) {
      fired.emplace_back(scheduler().now(), k);
    };
    if (chained_) {
      schedule_timer_series(scheduler().now(), kStep, kCount, fire);
      return;
    }
    for (std::size_t k = 0; k < kCount; ++k)
      schedule_timer(static_cast<SimTime>(k + 1) * kStep,
                     [fire, k]() { fire(k); });
  }

  bool chained_;
};

TEST(NodeTimerSeries, MatchesUpFrontTimersAcrossACrashAndReboot) {
  // The crash drops the first series' timers due while the node is down,
  // and the reboot's stale epoch the rest; the reboot plans a new series.
  // A dropped link still schedules its successor, so the chained series
  // drops, fires and executes exactly what the up-front timers did.
  const auto run = [](bool chained) {
    FaultPlan plan;
    plan.crashes.push_back(CrashWindow{4, 1050 * kMillisecond,
                                       2200 * kMillisecond});
    auto net = std::make_unique<Network>(with_faults(plan), 41);
    net->emplace_node<SeriesNode>(4, chained);
    net->start_all();
    net->run();
    return net;
  };
  const auto chained = run(true);
  const auto up_front = run(false);
  const auto& c = static_cast<const SeriesNode&>(*chained->node(4));
  const auto& u = static_cast<const SeriesNode&>(*up_front->node(4));
  EXPECT_EQ(c.timers_dropped(), 20u);  // t = 1.1 s .. 3.0 s
  EXPECT_EQ(c.timers_dropped(), u.timers_dropped());
  EXPECT_EQ(c.fired, u.fired);
  EXPECT_EQ(c.fired.size(), 10u + SeriesNode::kCount);
  EXPECT_EQ(chained->scheduler().executed(), up_front->scheduler().executed());
  // Only the next timer of each series waits in the queue.
  EXPECT_LT(chained->scheduler().max_pending(),
            up_front->scheduler().max_pending());
}

/// Runs `plan` once inside a trial of one node.
class PlanNode final : public Node {
 public:
  explicit PlanNode(std::function<void(PlanNode&)> plan)
      : Node(1, util::Vec2{0, 0}, 150.0), plan_(std::move(plan)) {}
  void on_message(const Delivery&) override {}
  void start() override { plan_(*this); }
  void series(SimTime start, SimTime step, std::size_t count) {
    schedule_timer_series(start, step, count, [](std::size_t) {});
  }

 private:
  std::function<void(PlanNode&)> plan_;
};

TEST(NodeTimerSeries, RejectsSeriesThatRunBackwardOrPastSimTime) {
  const auto start = [](std::function<void(PlanNode&)> plan) {
    Network net{ChannelConfig{}, 1};
    net.emplace_node<PlanNode>(std::move(plan));
    net.start_all();
    return net.run();
  };
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  EXPECT_THROW(start([](PlanNode& n) { n.series(0, -1, 2); }),
               std::invalid_argument);
  EXPECT_THROW(start([](PlanNode& n) { n.series(-1, 1, 2); }),
               std::invalid_argument);
  EXPECT_THROW(start([](PlanNode& n) { n.series(kMax - 2, 1, 3); }),
               std::overflow_error);
  // The last time exactly at the limit, no timer at all, and a series
  // whose timers all share one instant are all fine.
  EXPECT_EQ(start([](PlanNode& n) { n.series(kMax - 3, 1, 3); }), 3u);
  EXPECT_EQ(start([](PlanNode& n) { n.series(kMax, 1, 0); }), 0u);
  EXPECT_EQ(start([](PlanNode& n) { n.series(5, 0, 4); }), 4u);
}

TEST(FaultPlan, WindowsStartingBeforeZeroAreRejected) {
  // Their transitions would be scheduled in the past when the trial starts.
  const auto rejects = [](const FaultPlan& plan, const std::string& what) {
    try {
      Network net{with_faults(plan), 1};
      ADD_FAILURE() << "accepted a " << what << " before 0";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };
  FaultPlan crash;
  crash.crashes.push_back(CrashWindow{1, -1, kSecond});
  rejects(crash, "crash window");
  FaultPlan partition;
  partition.partitions.push_back(PartitionWindow{{1}, -kSecond, kSecond});
  rejects(partition, "partition window");
  partition.partitions.back().start = 0;
  EXPECT_NO_THROW((Network{with_faults(partition), 1}));
}

TEST(FaultPlan, DriftAndPartitionValidationRejected) {
  for (const double ppm : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    FaultPlan bad_drift;
    bad_drift.clock_drift.max_drift_ppm = ppm;
    EXPECT_THROW((Network{with_faults(bad_drift), 1}), std::invalid_argument)
        << "max_drift_ppm " << ppm;
  }

  for (const double cycles : {0.0, std::numeric_limits<double>::quiet_NaN()}) {
    FaultPlan bad_turnaround;
    bad_turnaround.clock_drift.max_drift_ppm = 10.0;
    bad_turnaround.clock_drift.turnaround_cycles = cycles;
    EXPECT_THROW((Network{with_faults(bad_turnaround), 1}),
                 std::invalid_argument)
        << "turnaround_cycles " << cycles;
  }

  FaultPlan empty_window;
  empty_window.partitions.push_back(PartitionWindow{{1}, 5, 5});
  EXPECT_THROW((Network{with_faults(empty_window), 1}),
               std::invalid_argument);

  FaultPlan empty_side;
  empty_side.partitions.push_back(PartitionWindow{{}, 0, 5});
  EXPECT_THROW((Network{with_faults(empty_side), 1}), std::invalid_argument);
}

TEST(FaultPlan, PerNodeAndPerLinkLossAreScoped) {
  FaultPlan plan;
  plan.node_loss[3] = 1.0;                         // node 3 hears nothing
  plan.link_loss[FaultPlan::link_key(1, 2)] = 1.0;  // link 1->2 is dead
  Network net{with_faults(plan), 29};
  auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
  auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{50, 0}, 150.0);
  auto& c = net.emplace_node<RecorderNode>(3, util::Vec2{0, 50}, 150.0);
  net.channel().unicast(a, make_msg(1, 2));  // dead link
  net.channel().unicast(a, make_msg(1, 3));  // deaf node
  net.channel().unicast(b, make_msg(2, 1));  // unaffected
  net.run();
  EXPECT_TRUE(b.deliveries.empty());
  EXPECT_TRUE(c.deliveries.empty());
  EXPECT_EQ(a.deliveries.size(), 1u);
  EXPECT_EQ(net.channel().stats().dropped_by_fault, 2u);
}

TEST(FaultPlan, DelayJitterIsBoundedAndDeterministic) {
  FaultPlan plan;
  plan.max_extra_delay_ns = 10 * kMillisecond;
  std::vector<SimTime> first_run;
  for (int rep = 0; rep < 2; ++rep) {
    Network net{with_faults(plan), 31};
    auto& a = net.emplace_node<RecorderNode>(1, util::Vec2{0, 0}, 150.0);
    auto& b = net.emplace_node<RecorderNode>(2, util::Vec2{100, 0}, 150.0);
    for (int i = 0; i < 50; ++i) net.channel().unicast(a, make_msg(1, 2));
    net.run();
    ASSERT_EQ(b.deliveries.size(), 50u);
    std::vector<SimTime> times;
    for (const auto& d : b.deliveries) times.push_back(d.rx_time);
    // Base delay is ~8 ms air time; jitter adds [0, 10 ms).
    for (const auto t : times) {
      EXPECT_GE(t, 7 * kMillisecond);
      EXPECT_LE(t, 19 * kMillisecond);
    }
    if (rep == 0)
      first_run = times;
    else
      EXPECT_EQ(times, first_run);  // same seed => same jitter
  }
}

TEST(FaultPlan, InvalidParametersRejected) {
  for (const double p : {1.5, std::numeric_limits<double>::quiet_NaN()}) {
    FaultPlan bad_loss;
    bad_loss.loss_probability = p;
    EXPECT_THROW((Network{with_faults(bad_loss), 1}), std::invalid_argument);
  }

  // Each burst-chain probability is checked like the i.i.d. ones.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double GilbertElliottConfig::*field :
       {&GilbertElliottConfig::p_enter_bad, &GilbertElliottConfig::p_exit_bad,
        &GilbertElliottConfig::loss_good, &GilbertElliottConfig::loss_bad}) {
    for (const double p : {-0.1, 1.5, nan}) {
      FaultPlan bad_burst;
      bad_burst.burst.p_enter_bad = 0.1;
      bad_burst.burst.*field = p;
      EXPECT_THROW((Network{with_faults(bad_burst), 1}),
                   std::invalid_argument);
    }
  }

  FaultPlan bad_window;
  bad_window.crashes.push_back(CrashWindow{1, 100, 100});
  EXPECT_THROW((Network{with_faults(bad_window), 1}), std::invalid_argument);

  EXPECT_THROW(GilbertElliottConfig::for_average_loss(1.0, 5.0),
               std::invalid_argument);
  EXPECT_THROW(GilbertElliottConfig::for_average_loss(0.1, 0.5),
               std::invalid_argument);
  EXPECT_THROW(GilbertElliottConfig::for_average_loss(nan, 5.0),
               std::invalid_argument);
  EXPECT_THROW(GilbertElliottConfig::for_average_loss(0.1, nan),
               std::invalid_argument);
  EXPECT_THROW(GilbertElliottConfig::for_average_loss(
                   0.1, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  // 0.9 / (1 - 0.9) = 9 > 5: no chain with 5-packet bursts loses 90%.
  EXPECT_THROW(GilbertElliottConfig::for_average_loss(0.9, 5.0),
               std::invalid_argument);
  EXPECT_NO_THROW(GilbertElliottConfig::for_average_loss(0.9, 10.0));
}

TEST(Arq, TimeoutBacksOffExponentiallyWithBoundedJitter) {
  ArqConfig arq;
  arq.enabled = true;
  arq.initial_timeout_ns = 100 * kMillisecond;
  arq.backoff_factor = 2.0;
  arq.jitter_fraction = 0.1;
  util::Rng rng(5);
  for (std::size_t attempt = 0; attempt < 4; ++attempt) {
    const double nominal =
        static_cast<double>(arq.initial_timeout_ns) *
        std::pow(arq.backoff_factor, static_cast<double>(attempt));
    for (int i = 0; i < 100; ++i) {
      const SimTime t = arq_timeout(arq, attempt, rng);
      EXPECT_GE(static_cast<double>(t), nominal * 0.9);
      EXPECT_LE(static_cast<double>(t), nominal * 1.1);
    }
  }
}

TEST(Arq, NoJitterIsDeterministicAndDrawsNothing) {
  ArqConfig arq;
  arq.initial_timeout_ns = 100 * kMillisecond;
  arq.jitter_fraction = 0.0;
  util::Rng rng(5);
  const auto before = rng();
  util::Rng rng2(5);
  (void)rng2();
  EXPECT_EQ(arq_timeout(arq, 0, rng2), 100 * kMillisecond);
  EXPECT_EQ(arq_timeout(arq, 2, rng2), 400 * kMillisecond);
  // No randomness consumed: the next draw matches a fresh stream.
  util::Rng rng3(5);
  (void)rng3();
  EXPECT_EQ(rng2(), rng3());
  (void)before;
}

TEST(Arq, InvalidConfigRejected) {
  util::Rng rng(1);
  ArqConfig bad;
  bad.initial_timeout_ns = 0;
  EXPECT_THROW(arq_timeout(bad, 0, rng), std::invalid_argument);
  bad.initial_timeout_ns = kMillisecond;
  bad.backoff_factor = 0.5;
  EXPECT_THROW(arq_timeout(bad, 0, rng), std::invalid_argument);
  bad.backoff_factor = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(arq_timeout(bad, 0, rng), std::invalid_argument);
  bad.backoff_factor = 2.0;
  bad.jitter_fraction = 1.0;
  EXPECT_THROW(arq_timeout(bad, 0, rng), std::invalid_argument);
  bad.jitter_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(arq_timeout(bad, 0, rng), std::invalid_argument);
  // 1 ms doubled 45 times (about 3.5e19 ns) is past SimTime's range: a
  // timeout that cannot be represented is rejected, not cast.
  bad.jitter_fraction = 0.0;
  bad.max_retries = 50;
  EXPECT_EQ(arq_timeout(bad, 1, rng), 2 * kMillisecond);
  EXPECT_THROW(arq_timeout(bad, 45, rng), std::invalid_argument);
}

}  // namespace
}  // namespace sld::sim
