// System-level graceful degradation: the detection/revocation pipeline
// under channel faults, with and without the ARQ layer, plus the
// bit-for-bit guarantee that a zero-fault FaultPlan reproduces the
// fault-free trial exactly.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/secure_localization.hpp"

namespace sld::core {
namespace {

/// Down-scaled deployment (same density as the paper) for fast trials.
SystemConfig small_config() {
  SystemConfig c;
  c.deployment.total_nodes = 300;
  c.deployment.beacon_count = 30;
  c.deployment.malicious_beacon_count = 3;
  c.deployment.field = util::Rect::square(550.0);
  c.rtt_calibration_samples = 2000;
  c.strategy = attack::MaliciousStrategyConfig::with_effectiveness(1.0);
  c.paper_wormhole = false;
  c.seed = 11;
  return c;
}

sim::ArqConfig retries_on() {
  sim::ArqConfig arq;
  arq.enabled = true;
  arq.initial_timeout_ns = 250 * sim::kMillisecond;
  arq.max_retries = 4;
  return arq;
}

void expect_equal_summaries(const TrialSummary& a, const TrialSummary& b) {
  EXPECT_EQ(a.malicious_revoked, b.malicious_revoked);
  EXPECT_EQ(a.benign_revoked, b.benign_revoked);
  EXPECT_EQ(a.raw.probes_sent, b.raw.probes_sent);
  EXPECT_EQ(a.raw.probe_replies, b.raw.probe_replies);
  EXPECT_EQ(a.raw.alerts_submitted, b.raw.alerts_submitted);
  EXPECT_EQ(a.raw.consistency_flags, b.raw.consistency_flags);
  EXPECT_EQ(a.raw.sensor_requests, b.raw.sensor_requests);
  EXPECT_EQ(a.raw.sensor_replies, b.raw.sensor_replies);
  EXPECT_EQ(a.sensors_localized, b.sensors_localized);
  EXPECT_EQ(a.affected_sensor_references, b.affected_sensor_references);
  EXPECT_DOUBLE_EQ(a.mean_localization_error_ft,
                   b.mean_localization_error_ft);
  EXPECT_DOUBLE_EQ(a.max_localization_error_ft, b.max_localization_error_ft);
  EXPECT_DOUBLE_EQ(a.rtt_x_max_cycles, b.rtt_x_max_cycles);
  EXPECT_DOUBLE_EQ(a.radio_energy_uj, b.radio_energy_uj);
  EXPECT_EQ(a.channel.transmissions, b.channel.transmissions);
  EXPECT_EQ(a.channel.deliveries, b.channel.deliveries);
}

TEST(FaultTolerance, ZeroFaultPlanReproducesSeedTrialBitForBit) {
  // Explicitly spelling out every fault-layer default must not perturb a
  // single RNG draw or event relative to the untouched configuration.
  SystemConfig plain = small_config();

  SystemConfig spelled = small_config();
  spelled.faults = sim::FaultPlan{};
  spelled.faults.burst = sim::GilbertElliottConfig{};
  spelled.faults.crashes.clear();
  spelled.arq = sim::ArqConfig{};
  spelled.alert_loss_probability = 0.0;

  SecureLocalizationSystem a(plain), b(spelled);
  expect_equal_summaries(a.run(), b.run());
}

TEST(FaultTolerance, FaultCountersStayZeroWithoutFaults) {
  SecureLocalizationSystem sys(small_config());
  const auto s = sys.run();
  EXPECT_EQ(s.channel.dropped_by_fault, 0u);
  EXPECT_EQ(s.channel.duplicates, 0u);
  EXPECT_EQ(s.channel.corrupted, 0u);
  EXPECT_EQ(s.channel.crashed_drops, 0u);
  EXPECT_EQ(s.raw.probe_retransmissions, 0u);
  EXPECT_EQ(s.raw.probe_no_response, 0u);
  EXPECT_EQ(s.raw.sensor_retransmissions, 0u);
  EXPECT_EQ(s.raw.sensor_no_response, 0u);
  EXPECT_EQ(s.raw.alert_retransmissions, 0u);
  EXPECT_EQ(s.raw.alerts_delivery_failed, 0u);
}

TEST(FaultTolerance, DetectionUnderLossWithRetriesStaysNearBaseline) {
  // 10% i.i.d. loss with retries enabled must hold the detection rate
  // within a stated margin of the lossless baseline, with no new false
  // positives.
  ExperimentConfig baseline;
  baseline.base = small_config();
  baseline.trials = 3;
  const auto clean = run_experiment(baseline);

  ExperimentConfig lossy = baseline;
  lossy.base.faults.loss_probability = 0.1;
  lossy.base.alert_loss_probability = 0.1;
  lossy.base.arq = retries_on();
  const auto degraded = run_experiment(lossy);

  EXPECT_GE(degraded.detection_rate.mean(),
            clean.detection_rate.mean() - 0.15);
  EXPECT_LE(degraded.false_positive_rate.mean(),
            clean.false_positive_rate.mean() + 1e-9);
}

TEST(FaultTolerance, TimeoutsAreAccountedExplicitly) {
  // Heavy loss, detection-only timeout (no retries): every lost exchange
  // must surface as an explicit no-response outcome, not vanish.
  SystemConfig c = small_config();
  c.faults.loss_probability = 0.4;
  c.arq.enabled = true;
  c.arq.max_retries = 0;
  SecureLocalizationSystem sys(c);
  const auto s = sys.run();
  EXPECT_GT(s.channel.dropped_by_fault, 0u);
  EXPECT_GT(s.raw.probe_no_response, 0u);
  EXPECT_GT(s.raw.sensor_no_response, 0u);
  EXPECT_EQ(s.raw.probe_retransmissions, 0u);
  // Every probe either answered or timed out; nothing silently missing.
  EXPECT_EQ(s.raw.probe_replies + s.raw.probe_no_response,
            s.raw.probes_sent);
}

TEST(FaultTolerance, RetriesRecoverLostExchanges) {
  SystemConfig c = small_config();
  c.faults.loss_probability = 0.2;
  c.arq = retries_on();
  SecureLocalizationSystem sys(c);
  const auto s = sys.run();
  EXPECT_GT(s.raw.probe_retransmissions, 0u);
  // With 4 retries at 20% loss, per-exchange failure is ~(0.36)^5 per
  // round-trip; nearly every probe must complete.
  EXPECT_GT(s.raw.probe_replies,
            (s.raw.probes_sent * 95) / 100);
}

TEST(FaultTolerance, CrashedBeaconGoesUndetectedButAccounted) {
  // Crash one malicious beacon for the whole probing phase: its probes
  // time out, it cannot be detected, and the drops are counted.
  SystemConfig c = small_config();
  SecureLocalizationSystem probe_sys(c);
  // Find a malicious beacon id from ground truth.
  sim::NodeId victim = 0;
  for (const auto& [id, truth] : probe_sys.context().truth) {
    if (truth.malicious) {
      victim = id;
      break;
    }
  }
  ASSERT_NE(victim, 0u);

  SystemConfig crashed = c;
  crashed.faults.crashes.push_back(
      sim::CrashWindow{victim, 0, 3600 * sim::kSecond});
  crashed.arq.enabled = true;
  crashed.arq.max_retries = 1;
  SecureLocalizationSystem sys(crashed);
  const auto s = sys.run();
  EXPECT_GT(s.channel.crashed_drops, 0u);
  EXPECT_GT(s.raw.probe_no_response, 0u);
  EXPECT_FALSE(sys.context().bs().is_revoked(victim));
}

TEST(FaultTolerance, LostAlertsLowerDetectionButRetriesRestoreIt) {
  // Alert transport loss without retries loses revocations; the same loss
  // with ARQ enabled recovers them. Deterministic seeds, so >= holds
  // trial-for-trial in aggregate.
  ExperimentConfig no_arq;
  no_arq.base = small_config();
  no_arq.base.alert_loss_probability = 0.5;
  no_arq.trials = 3;
  const auto dropped = run_experiment(no_arq);

  ExperimentConfig with_arq = no_arq;
  with_arq.base.arq = retries_on();
  const auto recovered = run_experiment(with_arq);

  EXPECT_GE(recovered.detection_rate.mean(), dropped.detection_rate.mean());
  ExperimentConfig clean = no_arq;
  clean.base.alert_loss_probability = 0.0;
  const auto baseline = run_experiment(clean);
  EXPECT_NEAR(recovered.detection_rate.mean(),
              baseline.detection_rate.mean(), 0.2);
}

}  // namespace
}  // namespace sld::core
