// Properties of the simulation substrate: scheduler event ordering and the
// run_until boundary, packet conservation under arbitrary fault plans, ARQ
// backoff arithmetic, Gilbert-Elliott stationary statistics, and wire
// payload serialize/parse roundtrips.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "prop/generators.hpp"
#include "prop/prop.hpp"
#include "sim/arq.hpp"
#include "sim/channel.hpp"
#include "sim/faults.hpp"
#include "sim/message.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"

namespace {

using namespace sld;

TEST(SimProperty, SchedulerExecutesInNondecreasingTimeOrder) {
  EXPECT_TRUE(prop::forall(
      "events run in time order",
      prop::vector_of(prop::int_range(0, 1'000'000), 1, 40),
      [](const std::vector<std::int64_t>& times) {
        sim::Scheduler scheduler;
        std::vector<sim::SimTime> executed;
        for (const auto t : times)
          scheduler.schedule_at(t, [&executed, &scheduler]() {
            executed.push_back(scheduler.now());
          });
        scheduler.run();
        if (executed.size() != times.size()) return false;
        for (std::size_t i = 1; i < executed.size(); ++i)
          if (executed[i] < executed[i - 1]) return false;
        return true;
      }));
}

TEST(SimProperty, RunUntilNeverExecutesPastTheBoundary) {
  struct Case {
    std::vector<std::int64_t> times;
    std::int64_t until;
  };
  prop::Gen<Case> gen;
  const auto times_gen = prop::vector_of(prop::int_range(0, 1000), 1, 30);
  gen.generate = [times_gen](util::Rng& rng) {
    Case c;
    c.times = times_gen.generate(rng);
    c.until = rng.uniform_int(0, 1000);
    return c;
  };
  EXPECT_TRUE(prop::forall(
      "run_until(t) executes exactly the events with when <= t", gen,
      [](const Case& c) {
        sim::Scheduler scheduler;
        std::size_t ran = 0;
        for (const auto t : c.times)
          scheduler.schedule_at(t, [&ran]() { ++ran; });
        scheduler.run_until(c.until);
        std::size_t expected = 0;
        for (const auto t : c.times)
          if (t <= c.until) ++expected;
        return ran == expected && scheduler.now() >= c.until;
      }));
}

TEST(SimProperty, PacketConservationUnderArbitraryFaults) {
  // Fire random traffic through random fault plans and check the stats
  // conservation law on the public counters (the channel's own
  // SLD_INVARIANT re-checks it after every delivery in checking builds).
  struct Case {
    sim::FaultPlan plan;
    std::size_t nodes;
    std::size_t packets;
  };
  prop::Gen<Case> gen;
  const auto plan_gen = prop::fault_plan();
  gen.generate = [plan_gen](util::Rng& rng) {
    Case c;
    c.plan = plan_gen.generate(rng);
    c.nodes = 2 + static_cast<std::size_t>(rng.uniform_u64(8));
    c.packets = 1 + static_cast<std::size_t>(rng.uniform_u64(60));
    return c;
  };
  gen.show = [plan_gen](const Case& c) {
    std::ostringstream os;
    os << "{plan=" << plan_gen.describe(c.plan) << " nodes=" << c.nodes
       << " packets=" << c.packets << "}";
    return os.str();
  };

  class SinkNode final : public sim::Node {
   public:
    using Node::Node;
    void on_message(const sim::Delivery&) override {}
  };

  EXPECT_TRUE(prop::forall(
      "deliveries + fault_drops + crashed_rx == attempts + dups",
      gen, [](const Case& c, util::Rng& rng) {
        sim::ChannelConfig config;
        config.faults = c.plan;
        sim::Network net(config, rng());
        std::vector<SinkNode*> nodes;
        for (std::size_t i = 0; i < c.nodes; ++i)
          // One tight cluster: everyone hears everyone.
          nodes.push_back(&net.emplace_node<SinkNode>(
              static_cast<sim::NodeId>(i + 1),
              util::Vec2{static_cast<double>(i), 0.0}, 150.0));
        for (std::size_t i = 0; i < c.packets; ++i) {
          const auto& src = *nodes[rng.uniform_u64(nodes.size())];
          const auto& dst = *nodes[rng.uniform_u64(nodes.size())];
          if (src.id() == dst.id()) continue;
          sim::Message msg;
          msg.src = src.id();
          msg.dst = dst.id();
          msg.type = sim::MsgType::kAppData;
          msg.payload = {0xab, 0xcd};
          net.channel().unicast(src, std::move(msg));
          net.run();
        }
        const auto& s = net.channel().stats();
        return s.deliveries + s.dropped_by_fault + s.crashed_rx_drops ==
               s.delivery_attempts + s.duplicates &&
               s.crashed_drops == s.crashed_tx_drops + s.crashed_rx_drops;
      }));
}

TEST(SimProperty, ArqTimeoutArithmetic) {
  // Zero jitter: timeout == initial * backoff^attempt exactly; with jitter
  // the draw stays inside the +-fraction envelope; both are monotone in
  // the attempt index (for backoff > 1).
  struct Case {
    sim::ArqConfig config;
    std::size_t attempt;
  };
  prop::Gen<Case> gen;
  gen.generate = [](util::Rng& rng) {
    Case c;
    c.config.initial_timeout_ns =
        static_cast<sim::SimTime>(1 + rng.uniform_u64(500'000'000));
    c.config.backoff_factor = rng.uniform(1.0, 3.0);
    c.config.jitter_fraction = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.0, 0.5);
    c.config.max_retries = 8;
    c.attempt = static_cast<std::size_t>(rng.uniform_u64(7));
    return c;
  };
  EXPECT_TRUE(prop::forall(
      "arq_timeout = initial * backoff^attempt (+- jitter)", gen,
      [](const Case& c, util::Rng& rng) {
        const double exact =
            static_cast<double>(c.config.initial_timeout_ns) *
            std::pow(c.config.backoff_factor,
                     static_cast<double>(c.attempt));
        const auto t = sim::arq_timeout(c.config, c.attempt, rng);
        if (c.config.jitter_fraction == 0.0)
          return t == static_cast<sim::SimTime>(exact);
        const double lo = exact * (1.0 - c.config.jitter_fraction);
        const double hi = exact * (1.0 + c.config.jitter_fraction);
        return static_cast<double>(t) >= lo - 1.0 &&
               static_cast<double>(t) <= hi + 1.0;
      }));
}

TEST(SimProperty, GilbertElliottForAverageLossHitsTheTargets) {
  struct Case {
    double target_loss;
    double burst_len;
  };
  prop::Gen<Case> gen;
  gen.generate = [](util::Rng& rng) {
    return Case{rng.uniform(0.005, 0.5), rng.uniform(1.0, 10.0)};
  };
  EXPECT_TRUE(prop::forall(
      "stationary loss == target, mean burst == requested", gen,
      [](const Case& c) {
        const auto ge = sim::GilbertElliottConfig::for_average_loss(
            c.target_loss, c.burst_len);
        if (!ge.enabled()) return false;
        const double stationary =
            ge.p_enter_bad / (ge.p_enter_bad + ge.p_exit_bad);
        const double loss =
            stationary * ge.loss_bad + (1.0 - stationary) * ge.loss_good;
        const double mean_burst = 1.0 / ge.p_exit_bad;
        return std::abs(loss - c.target_loss) < 1e-9 &&
               std::abs(mean_burst - c.burst_len) < 1e-6 &&
               ge.p_enter_bad > 0.0 && ge.p_enter_bad <= 1.0 &&
               ge.p_exit_bad > 0.0 && ge.p_exit_bad <= 1.0;
      }));
}

TEST(SimProperty, PayloadSerializeParseRoundtrips) {
  EXPECT_TRUE(prop::forall(
      "BeaconRequestPayload roundtrip", prop::beacon_request_payload(),
      [](const sim::BeaconRequestPayload& p) {
        return sim::BeaconRequestPayload::parse(p.serialize()).nonce == p.nonce;
      }));
  EXPECT_TRUE(prop::forall(
      "BeaconReplyPayload roundtrip", prop::beacon_reply_payload(),
      [](const sim::BeaconReplyPayload& p) {
        const auto q = sim::BeaconReplyPayload::parse(p.serialize());
        return q.nonce == p.nonce && q.claimed_position == p.claimed_position &&
               q.processing_bias_cycles == p.processing_bias_cycles &&
               q.range_manipulation_ft == p.range_manipulation_ft &&
               q.fake_wormhole_indication == p.fake_wormhole_indication;
      }));
  EXPECT_TRUE(prop::forall(
      "AlertPayload roundtrip", prop::alert_payload(),
      [](const sim::AlertPayload& p) {
        const auto q = sim::AlertPayload::parse(p.serialize());
        return q.reporter == p.reporter && q.target == p.target;
      }));
  EXPECT_TRUE(prop::forall(
      "RevocationPayload roundtrip", prop::revocation_payload(),
      [](const sim::RevocationPayload& p) {
        return sim::RevocationPayload::parse(p.serialize()).revoked == p.revoked;
      }));
}

}  // namespace
