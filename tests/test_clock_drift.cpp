// Clock-drift faults: deterministic per-node rate assignment, the signed
// RTT skew it induces, the RTT filter's guard band keeping the
// false-positive budget under drift (replayable via SLD_PROP_SEED), and a
// system trial under drift revoking no benign beacon.
#include <gtest/gtest.h>

#include <cmath>

#include "core/nodes.hpp"
#include "core/secure_localization.hpp"
#include "prop/prop.hpp"
#include "sim/faults.hpp"

namespace {

using namespace sld;

sim::FaultInjector drifting_injector(double max_ppm, std::uint64_t seed = 7) {
  sim::FaultPlan plan;
  plan.clock_drift.max_drift_ppm = max_ppm;
  return sim::FaultInjector(plan, util::Rng(seed));
}

TEST(ClockDrift, DisabledDriftIsExactlyZero) {
  sim::FaultInjector inj(sim::FaultPlan{}, util::Rng(1));
  for (sim::NodeId n = 0; n < 50; ++n) {
    EXPECT_EQ(inj.drift_ppm(n), 0.0);
    EXPECT_EQ(inj.rtt_skew_cycles(n, n + 1), 0.0);
  }
}

TEST(ClockDrift, AssignmentIsBoundedDeterministicAndOrderIndependent) {
  const double max_ppm = 50.0;
  auto a = drifting_injector(max_ppm);
  auto b = drifting_injector(max_ppm);
  // Query b backwards: the per-node rate is a pure hash of (seed, id), so
  // the order of queries cannot matter.
  for (sim::NodeId n = 200; n-- > 0;) {
    EXPECT_LE(std::abs(b.drift_ppm(n)), max_ppm);
  }
  bool any_differ = false;
  for (sim::NodeId n = 0; n < 200; ++n) {
    EXPECT_EQ(a.drift_ppm(n), b.drift_ppm(n)) << "node " << n;
    any_differ = any_differ || a.drift_ppm(n) != a.drift_ppm(0);
  }
  EXPECT_TRUE(any_differ) << "all 200 nodes drew the same rate";
}

TEST(ClockDrift, RttSkewIsAntisymmetricAndMatchesRateDifference) {
  const double max_ppm = 100.0;
  auto inj = drifting_injector(max_ppm);
  const double turnaround = inj.plan().clock_drift.turnaround_cycles;
  const double worst = 2.0 * max_ppm * 1e-6 * turnaround;
  for (sim::NodeId rx = 0; rx < 20; ++rx) {
    EXPECT_EQ(inj.rtt_skew_cycles(rx, rx), 0.0);
    for (sim::NodeId tx = 0; tx < 20; ++tx) {
      const double skew = inj.rtt_skew_cycles(rx, tx);
      EXPECT_DOUBLE_EQ(skew, -inj.rtt_skew_cycles(tx, rx));
      EXPECT_DOUBLE_EQ(
          skew, (inj.drift_ppm(rx) - inj.drift_ppm(tx)) * 1e-6 * turnaround);
      EXPECT_LE(std::abs(skew), worst + 1e-12);
    }
  }
}

/// How far the system widens the replay filter's x_max beyond the
/// calibrated one.
double guard_band(const core::SystemContext& ctx) {
  return ctx.detector->replay_filter().config().rtt_x_max_cycles -
         ctx.rtt_calibration.x_max_cycles;
}

TEST(ClockDrift, GuardBandKeepsRttFilterFalsePositiveBudget) {
  // The system widens x_max by the worst-case skew so drift alone never
  // reads as replay delay. With drift off the calibrated x_max is used
  // untouched. With an aggressive 2000 ppm envelope the raw skew (~590
  // cycles against a 1728-cycle span) would push honest measurements over
  // the calibrated x_max; the filter the system builds must keep the
  // false-positive rate within a 1% budget.
  core::SystemConfig c;
  EXPECT_EQ(guard_band(core::SystemContext(c)), 0.0);

  c.faults.clock_drift.max_drift_ppm = 2000.0;
  const core::SystemContext ctx(c);
  EXPECT_GT(guard_band(ctx), 0.0);
  const detection::ReplayFilter& filter = ctx.detector->replay_filter();
  const sim::FaultInjector inj(c.faults, util::Rng(13));

  util::Rng rng(prop::env_seed_or(0xd41f7));
  int fp_guarded = 0, over_unguarded = 0;
  const int samples = 5000;
  for (int i = 0; i < samples; ++i) {
    const auto rx = static_cast<sim::NodeId>(rng.uniform_int(0, 299));
    const auto tx = static_cast<sim::NodeId>(rng.uniform_int(0, 299));
    const double dist = rng.uniform(0.0, c.deployment.comm_range_ft);
    const double observed =
        ctx.timing.sample_rtt_cycles(dist, rng) + inj.rtt_skew_cycles(rx, tx);
    if (observed > ctx.rtt_calibration.x_max_cycles) ++over_unguarded;
    if (filter.rtt_looks_replayed(observed)) ++fp_guarded;
  }
  // Drift genuinely stresses the unguarded threshold...
  EXPECT_GT(over_unguarded, 0);
  // ...and the guard band absorbs it within budget.
  EXPECT_LE(fp_guarded, samples / 100);
}

TEST(ClockDrift, SystemUnderDriftRevokesNoBenignBeacon) {
  core::SystemConfig c;
  c.deployment.total_nodes = 300;
  c.deployment.beacon_count = 30;
  c.deployment.malicious_beacon_count = 3;
  c.deployment.field = util::Rect::square(550.0);
  c.rtt_calibration_samples = 2000;
  c.strategy = attack::MaliciousStrategyConfig::with_effectiveness(1.0);
  c.paper_wormhole = false;
  c.seed = 11;
  c.faults.clock_drift.max_drift_ppm = 50.0;
  core::SecureLocalizationSystem sys(c);
  const auto s = sys.run();
  EXPECT_EQ(s.benign_revoked, 0u);
  EXPECT_GE(s.malicious_revoked, 2u);
}

}  // namespace
