// Parameterized full-system property sweeps: invariants that must hold at
// every operating point of the (tau1, tau2, m, P, loss, N_w) space, run on
// a down-scaled (600-node) deployment for speed.
#include <gtest/gtest.h>

#include <string>

#include "analysis/formulas.hpp"
#include "core/experiment.hpp"

namespace sld::core {
namespace {

/// gtest parameter name "<prefix><value>", built by appending: GCC 12
/// reports a false -Wrestrict on `const char* + std::string&&`.
template <typename T>
std::string param_name(const char* prefix, T value) {
  std::string name = prefix;
  name += std::to_string(value);
  return name;
}

SystemConfig sweep_config(std::uint64_t seed) {
  SystemConfig c;
  c.deployment.total_nodes = 600;
  c.deployment.beacon_count = 60;
  c.deployment.malicious_beacon_count = 6;
  c.deployment.field = util::Rect::square(800.0);
  c.rtt_calibration_samples = 2000;
  c.seed = seed;
  return c;
}

void check_trial_invariants(const TrialSummary& s) {
  // Counter accounting.
  EXPECT_LE(s.raw.probe_replies, s.raw.probes_sent);
  EXPECT_LE(s.raw.sensor_replies, s.raw.sensor_requests);
  EXPECT_EQ(s.sensors, s.sensors_localized + s.sensors_unlocalized);
  EXPECT_EQ(s.raw.mac_failures, 0u);
  // Rates are probabilities.
  EXPECT_GE(s.detection_rate, 0.0);
  EXPECT_LE(s.detection_rate, 1.0);
  EXPECT_GE(s.false_positive_rate, 0.0);
  EXPECT_LE(s.false_positive_rate, 1.0);
  // Alert bookkeeping at the base station.
  EXPECT_EQ(s.base_station.alerts_received,
            s.base_station.alerts_accepted +
                s.base_station.alerts_ignored_quota +
                s.base_station.alerts_ignored_revoked);
  // Revocations the summary reports match the base station's.
  EXPECT_EQ(s.malicious_revoked + s.benign_revoked,
            s.base_station.revocations);
}

// --- sweep over attack effectiveness -----------------------------------

class EffectivenessSweep : public ::testing::TestWithParam<double> {};

TEST_P(EffectivenessSweep, InvariantsHoldAndFalsePositivesStayLow) {
  SystemConfig c = sweep_config(11 + static_cast<std::uint64_t>(
                                         GetParam() * 100));
  c.strategy = attack::MaliciousStrategyConfig::with_effectiveness(GetParam());
  SecureLocalizationSystem system(c);
  const auto s = system.run();
  check_trial_invariants(s);
  // Without collusion, benign beacons are essentially never revoked.
  EXPECT_LE(s.benign_revoked, 3u);
  // Dormant attackers are never detected; active ones eventually are.
  if (GetParam() == 0.0) {
    EXPECT_EQ(s.malicious_revoked, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AttackLevels, EffectivenessSweep,
                         ::testing::Values(0.0, 0.05, 0.2, 0.4, 0.6, 0.8,
                                           1.0),
                         [](const auto& p) {
                           return param_name("P", static_cast<int>(p.param * 100));
                         });

// --- sweep over detecting IDs -------------------------------------------

class DetectingIdSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DetectingIdSweep, DetectionRateWithinTheoryBand) {
  ExperimentConfig e{sweep_config(23), 3};
  e.base.detecting_ids = GetParam();
  e.base.strategy = attack::MaliciousStrategyConfig::with_effectiveness(0.25);
  e.base.paper_wormhole = false;
  const auto agg = run_experiment(e);
  const auto params =
      model_params_for(e.base, agg.requesters_per_malicious.mean());
  const double theory = analysis::revocation_probability(params, 0.25);
  EXPECT_NEAR(agg.detection_rate.mean(), theory, 0.3)
      << "m = " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(DetectingIds, DetectingIdSweep,
                         ::testing::Values(1, 2, 4, 8, 16),
                         [](const auto& p) { return param_name("m", p.param); });

// --- sweep over revocation thresholds ------------------------------------

struct ThresholdCase {
  std::uint32_t tau1;
  std::uint32_t tau2;
};

class ThresholdSweep : public ::testing::TestWithParam<ThresholdCase> {};

TEST_P(ThresholdSweep, CollusionDamageBoundedByNf) {
  SystemConfig c = sweep_config(31 + GetParam().tau1 + GetParam().tau2);
  c.revocation.report_quota = GetParam().tau1;
  c.revocation.alert_threshold = GetParam().tau2;
  c.collusion = true;
  c.paper_wormhole = false;
  c.strategy = attack::MaliciousStrategyConfig::with_effectiveness(0.0);
  SecureLocalizationSystem system(c);
  const auto s = system.run();
  check_trial_invariants(s);
  // The paper's worst-case bound N_f = N_a (tau1+1) / (tau2+1), with no
  // wormhole term here.
  const double nf = 6.0 * (GetParam().tau1 + 1) / (GetParam().tau2 + 1);
  EXPECT_LE(static_cast<double>(s.benign_revoked), nf + 1e-9);
  // And the bound is essentially achieved (colluders play optimally).
  EXPECT_GE(static_cast<double>(s.benign_revoked), nf * 0.6 - 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Thresholds, ThresholdSweep,
    ::testing::Values(ThresholdCase{2, 2}, ThresholdCase{5, 2},
                      ThresholdCase{10, 2}, ThresholdCase{10, 3},
                      ThresholdCase{10, 4}, ThresholdCase{20, 4}),
    [](const auto& p) {
      std::string name = param_name("tau1_", p.param.tau1);
      name += param_name("_tau2_", p.param.tau2);
      return name;
    });

// --- sweep over radio loss ------------------------------------------------

class LossSweep : public ::testing::TestWithParam<double> {};

TEST_P(LossSweep, SystemSurvivesLossyRadios) {
  SystemConfig c = sweep_config(41 + static_cast<std::uint64_t>(
                                         GetParam() * 100));
  c.channel_loss_probability = GetParam();
  c.strategy = attack::MaliciousStrategyConfig::with_effectiveness(0.5);
  SecureLocalizationSystem system(c);
  const auto s = system.run();
  check_trial_invariants(s);
  if (GetParam() > 0.0) {
    EXPECT_GT(s.channel.losses, 0u);
  }
  // Even at 40% loss some sensors still gather three references.
  if (GetParam() <= 0.4) {
    EXPECT_GT(s.sensors_localized, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, LossSweep,
                         ::testing::Values(0.0, 0.1, 0.25, 0.4),
                         [](const auto& p) {
                           return param_name(
                               "loss", static_cast<int>(p.param * 100));
                         });

// --- sweep over wormhole pressure ----------------------------------------

class WormholeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WormholeSweep, FalseAlertsScaleWithTunnels) {
  SystemConfig c = sweep_config(53 + GetParam());
  c.deployment.malicious_beacon_count = 0;  // isolate the wormhole effect
  c.paper_wormhole = false;
  c.extra_random_wormholes = GetParam();
  SecureLocalizationSystem system(c);
  const auto s = system.run();
  check_trial_invariants(s);
  if (GetParam() == 0) {
    EXPECT_EQ(s.raw.alerts_submitted, 0u);
    EXPECT_EQ(s.benign_revoked, 0u);
  }
  // With p_d = 0.9 and tau2 = 2, even several tunnels revoke at most a
  // handful of benign beacons.
  EXPECT_LE(s.false_positive_rate, 0.15);
}

INSTANTIATE_TEST_SUITE_P(Wormholes, WormholeSweep,
                         ::testing::Values(0, 1, 3, 6),
                         [](const auto& p) { return param_name("Nw", p.param); });

// --- lifecycle detection parity -------------------------------------------

// The evidence-lifecycle scheme (quarantine + corroboration) must not cost
// detection: in the fig12/fig14 scenario (the paper's §4 scale — this is
// the default SystemConfig, where cells hold several beacons and the
// coverage guard rarely has to defer a quarantine) the detection rate with
// the lifecycle on (quarantined counts as detected) stays within 2% of the
// permanent-revocation baseline at the same seeds.

class LifecycleParitySweep : public ::testing::TestWithParam<double> {};

TEST_P(LifecycleParitySweep, DetectionWithinTwoPercentOfPermanent) {
  ExperimentConfig e;
  e.trials = 3;
  e.base.seed = 67 + static_cast<std::uint64_t>(GetParam() * 100);
  e.base.strategy =
      attack::MaliciousStrategyConfig::with_effectiveness(GetParam());

  const auto base = run_experiment(e);

  e.base.revocation.lifecycle.enabled = true;
  e.base.fallback.enabled = true;
  const auto lifecycle = run_experiment(e);

  EXPECT_NEAR(lifecycle.detection_rate.mean(), base.detection_rate.mean(),
              0.02)
      << "P = " << GetParam();
  // The lifecycle never permanently revokes more benign beacons than the
  // permanent scheme does (corroboration only removes revocations).
  EXPECT_LE(lifecycle.false_positive_rate.mean(),
            base.false_positive_rate.mean() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(ParityLevels, LifecycleParitySweep,
                         ::testing::Values(0.2, 0.4, 0.8),
                         [](const auto& p) {
                           return param_name("P", static_cast<int>(p.param * 100));
                         });

}  // namespace
}  // namespace sld::core
