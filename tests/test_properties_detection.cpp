// Metamorphic and differential properties of the detection pipeline:
// honest signals never flag, verdicts are rigid-motion invariant, deviation
// grows monotonically with the attacker's claim offset, RTT cancels MAC
// delay exactly, and the strategy partition agrees with the closed-form
// attack effectiveness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "analysis/formulas.hpp"
#include "attack/strategy.hpp"
#include "detection/beacon_check.hpp"
#include "prop/generators.hpp"
#include "prop/prop.hpp"
#include "ranging/rssi.hpp"
#include "ranging/rtt.hpp"
#include "util/geometry.hpp"

namespace {

using namespace sld;

constexpr double kPi = 3.14159265358979323846;

struct Placement {
  util::Vec2 detector;
  util::Vec2 beacon;
};

prop::Gen<Placement> placement_gen(double min_dist, double max_dist) {
  prop::Gen<Placement> g;
  g.generate = [min_dist, max_dist](util::Rng& rng) {
    Placement p;
    p.detector = {rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0)};
    const double angle = rng.uniform(-kPi, kPi);
    const double dist = rng.uniform(min_dist, max_dist);
    p.beacon = p.detector +
               util::Vec2{dist * std::cos(angle), dist * std::sin(angle)};
    return p;
  };
  g.show = [](const Placement& p) {
    std::ostringstream os;
    os << "{det=(" << p.detector.x << "," << p.detector.y << ") beacon=("
       << p.beacon.x << "," << p.beacon.y << ")}";
    return os.str();
  };
  return g;
}

TEST(DetectionProperty, HonestRssiMeasurementNeverFlags) {
  // An honest beacon at its claimed position measured by an honest
  // bounded-error RSSI model can never violate the consistency bound —
  // the paper's zero-false-positive premise.
  const ranging::RssiRangingModel rssi{ranging::RssiConfig{}};
  const detection::ConsistencyCheck check(rssi.config().max_error_ft);
  EXPECT_TRUE(prop::forall(
      "honest measurement stays within e_max", placement_gen(1.0, 600.0),
      [&](const Placement& p, util::Rng& rng) {
        const double truth = util::distance(p.detector, p.beacon);
        const double measured = rssi.measure(truth, rng);
        return !check.is_malicious(p.detector, p.beacon, measured);
      }));
}

TEST(DetectionProperty, ConsistentVerdictImpliesFiniteInputsWithinBound) {
  // Fail-closed soundness against an insider, whose correctly MACed reply
  // can carry any double: "consistent" implies a finite claim and
  // measurement with |d - |c - r|| <= e.
  struct Case {
    util::Vec2 receiver;
    util::Vec2 claim;
    double measured = 0.0;
    double max_error = 0.0;
  };
  prop::Gen<Case> gen;
  gen.generate = [](util::Rng& rng) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const double specials[] = {nan, inf, -inf};
    Case c;
    c.receiver = {rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0)};
    const double angle = rng.uniform(-kPi, kPi);
    const double dist = rng.uniform(0.0, 300.0);
    c.claim = c.receiver +
              util::Vec2{dist * std::cos(angle), dist * std::sin(angle)};
    c.max_error = rng.uniform(0.0, 10.0);
    // About half the finite cases land within the bound.
    c.measured = std::max(0.0, dist + rng.uniform(-2.0, 2.0) * c.max_error);
    if (rng.bernoulli(0.2)) c.claim.x = specials[rng.uniform_u64(3)];
    if (rng.bernoulli(0.2)) c.claim.y = specials[rng.uniform_u64(3)];
    if (rng.bernoulli(0.2)) c.measured = specials[rng.uniform_u64(2)];
    return c;
  };
  gen.show = [](const Case& c) {
    std::ostringstream os;
    os << "{receiver=(" << c.receiver.x << "," << c.receiver.y << ") claim=("
       << c.claim.x << "," << c.claim.y << ") measured=" << c.measured
       << " e=" << c.max_error << "}";
    return os.str();
  };
  EXPECT_TRUE(prop::forall(
      "consistent implies finite inputs within e", gen, [](const Case& c) {
        const detection::ConsistencyCheck check(c.max_error);
        if (check.check(c.receiver, c.claim, c.measured).malicious) return true;
        return std::isfinite(c.claim.x) && std::isfinite(c.claim.y) &&
               std::isfinite(c.measured) &&
               std::abs(c.measured - util::distance(c.receiver, c.claim)) <=
                   c.max_error;
      }));
}

TEST(DetectionProperty, ConsistencyVerdictIsRigidMotionInvariant) {
  // Distances are preserved by translation + rotation, so the verdict and
  // the deviation must be too (up to float noise, well below e_max).
  const detection::ConsistencyCheck check(4.0);
  struct Scene {
    Placement placement;
    double measured;
    util::Vec2 translation;
    double rotation;
  };
  prop::Gen<Scene> gen;
  const auto base = placement_gen(1.0, 600.0);
  gen.generate = [base](util::Rng& rng) {
    Scene s;
    s.placement = base.generate(rng);
    const double truth = util::distance(s.placement.detector, s.placement.beacon);
    // Mix honest and malicious measurements, away from the 4 ft knife edge.
    double offset;
    do {
      offset = rng.uniform(-30.0, 30.0);
    } while (std::abs(std::abs(offset) - 4.0) < 0.01);
    s.measured = std::max(0.0, truth + offset);
    s.translation = {rng.uniform(-3000.0, 3000.0), rng.uniform(-3000.0, 3000.0)};
    s.rotation = rng.uniform(-kPi, kPi);
    return s;
  };
  auto rotate = [](const util::Vec2& v, double a) {
    return util::Vec2{v.x * std::cos(a) - v.y * std::sin(a),
                      v.x * std::sin(a) + v.y * std::cos(a)};
  };
  EXPECT_TRUE(prop::forall(
      "consistency verdict invariant under rigid motion", gen,
      [&](const Scene& s) {
        const auto before = check.check(s.placement.detector,
                                        s.placement.beacon, s.measured);
        const util::Vec2 det2 =
            rotate(s.placement.detector, s.rotation) + s.translation;
        const util::Vec2 beacon2 =
            rotate(s.placement.beacon, s.rotation) + s.translation;
        const auto after = check.check(det2, beacon2, s.measured);
        return before.malicious == after.malicious &&
               std::abs(before.deviation_ft - after.deviation_ft) < 1e-6;
      }));
}

TEST(DetectionProperty, DeviationIsMonotoneInClaimOffset) {
  // Pushing the claimed position radially farther from the detector while
  // the measurement stays put can only grow the deviation; once flagged,
  // a larger lie stays flagged.
  const detection::ConsistencyCheck check(4.0);
  struct Case {
    Placement placement;
    double offset_a;
    double offset_b;  // >= offset_a
  };
  prop::Gen<Case> gen;
  const auto base = placement_gen(10.0, 400.0);
  gen.generate = [base](util::Rng& rng) {
    Case c;
    c.placement = base.generate(rng);
    c.offset_a = rng.uniform(0.0, 100.0);
    c.offset_b = c.offset_a + rng.uniform(0.0, 100.0);
    return c;
  };
  EXPECT_TRUE(prop::forall(
      "deviation monotone in radial claim offset", gen, [&](const Case& c) {
        const double truth =
            util::distance(c.placement.detector, c.placement.beacon);
        const util::Vec2 dir =
            (c.placement.beacon - c.placement.detector) / truth;
        const auto at = [&](double offset) {
          return check.check(c.placement.detector,
                             c.placement.beacon + dir * offset, truth);
        };
        const auto lo = at(c.offset_a);
        const auto hi = at(c.offset_b);
        if (hi.deviation_ft + 1e-9 < lo.deviation_ft) return false;
        return !(lo.malicious && !hi.malicious);
      }));
}

TEST(DetectionProperty, RttCancelsMacDelayExactly) {
  // RTT = (t4 - t1) - (t3 - t2): the receiver-side MAC/processing gap must
  // cancel bit-for-bit, so two exchanges differing only in MAC delay give
  // the same RTT when fed the same randomness.
  const ranging::MoteTimingModel model;
  struct Case {
    double distance;
    double mac_a;
    double mac_b;
  };
  prop::Gen<Case> gen;
  gen.generate = [](util::Rng& rng) {
    return Case{rng.uniform(0.0, 150.0), rng.uniform(0.0, 1e6),
                rng.uniform(0.0, 1e6)};
  };
  EXPECT_TRUE(prop::forall(
      "RTT independent of MAC delay", gen,
      [&](const Case& c, util::Rng& rng) {
        util::Rng rng_a = rng.fork(1);
        util::Rng rng_b = rng.fork(1);  // identical stream
        const auto xa =
            ranging::sample_rtt_exchange(model, c.distance, c.mac_a, rng_a);
        const auto xb =
            ranging::sample_rtt_exchange(model, c.distance, c.mac_b, rng_b);
        return std::abs(xa.rtt_cycles() - xb.rtt_cycles()) < 1e-6;
      }));
}

TEST(DetectionProperty, StrategyPartitionMatchesClosedFormEffectiveness) {
  // The sticky per-requester partition is a Bernoulli process with success
  // probability P = (1-p_n)(1-p_w)(1-p_l); over many requester IDs the
  // empirical effective fraction must concentrate near P, and the
  // closed-form in analysis/ must agree with the config's own arithmetic.
  EXPECT_TRUE(prop::forall(
      "empirical effective fraction ~ P", prop::strategy_config(),
      [&](const attack::MaliciousStrategyConfig& s, util::Rng& rng) {
        const double P = s.effectiveness();
        if (std::abs(analysis::attack_effectiveness(
                s.p_normal, s.p_fake_wormhole, s.p_fake_local_replay) -
                     P) > 1e-12)
          return false;
        const attack::MaliciousBeaconStrategy strategy(s, rng());
        const int kRequesters = 4000;
        int effective = 0;
        for (int i = 0; i < kRequesters; ++i) {
          const auto id = 0x00100000u + static_cast<sim::NodeId>(i);
          if (strategy.behavior_for(id) == attack::MaliciousBehavior::kEffective)
            ++effective;
        }
        const double empirical = static_cast<double>(effective) / kRequesters;
        // 4000 draws: sigma <= 0.0079; 5 sigma ~ 0.04.
        return std::abs(empirical - P) < 0.04;
      }));
}

TEST(DetectionProperty, DetectionProbabilityMonotoneInDetectingIds) {
  // P_r = 1 - (1 - P)^m grows with m and with P.
  EXPECT_TRUE(prop::forall(
      "P_r monotone in m and P", prop::double_range(0.0, 1.0),
      [](const double& P, util::Rng& rng) {
        const auto m = static_cast<std::size_t>(1 + rng.uniform_u64(16));
        const double pr_m = analysis::detection_probability(P, m);
        const double pr_m1 = analysis::detection_probability(P, m + 1);
        if (pr_m1 + 1e-12 < pr_m) return false;
        const double P2 = std::min(1.0, P + 0.1);
        return analysis::detection_probability(P2, m) + 1e-12 >= pr_m;
      }));
}

}  // namespace
