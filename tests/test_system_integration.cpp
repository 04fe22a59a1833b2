#include "core/secure_localization.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "obs/slo.hpp"

namespace sld::core {
namespace {

/// A down-scaled deployment for fast tests (same density as the paper:
/// ~0.001 nodes/ft^2, 10% beacons, 10% of beacons malicious).
SystemConfig small_config() {
  SystemConfig c;
  c.deployment.total_nodes = 300;
  c.deployment.beacon_count = 30;
  c.deployment.malicious_beacon_count = 3;
  c.deployment.field = util::Rect::square(550.0);
  c.rtt_calibration_samples = 2000;
  c.seed = 11;
  return c;
}

TEST(SystemIntegration, NoAttackersNothingRevoked) {
  SystemConfig c = small_config();
  c.deployment.malicious_beacon_count = 0;
  c.paper_wormhole = false;
  SecureLocalizationSystem system(c);
  const auto s = system.run();
  EXPECT_EQ(s.malicious_beacons, 0u);
  EXPECT_EQ(s.benign_revoked, 0u);
  EXPECT_EQ(s.raw.alerts_submitted, 0u);
  EXPECT_EQ(s.raw.consistency_flags, 0u);
  EXPECT_EQ(s.avg_affected_per_malicious, 0.0);
}

TEST(SystemIntegration, NoAttackersSensorsLocalizeAccurately) {
  SystemConfig c = small_config();
  c.deployment.malicious_beacon_count = 0;
  c.paper_wormhole = false;
  SecureLocalizationSystem system(c);
  const auto s = system.run();
  EXPECT_GT(s.sensors_localized, s.sensors / 2);
  // Bounded 4 ft ranging noise: mean error must stay small.
  EXPECT_LT(s.mean_localization_error_ft, 10.0);
}

TEST(SystemIntegration, FullyAggressiveMaliciousBeaconsAreRevoked) {
  SystemConfig c = small_config();
  c.strategy = attack::MaliciousStrategyConfig::with_effectiveness(1.0);
  c.paper_wormhole = false;
  SecureLocalizationSystem system(c);
  const auto s = system.run();
  // P = 1: every probing benign neighbour detects; revocation is certain
  // unless a malicious beacon has almost no benign beacon neighbours.
  EXPECT_GE(s.detection_rate, 0.6);
  EXPECT_EQ(s.benign_revoked, 0u);
  // Revoked beacons' signals are not used: impact collapses.
  EXPECT_LT(s.avg_affected_per_malicious, 10.0);
}

TEST(SystemIntegration, DormantMaliciousBeaconsStayHidden) {
  SystemConfig c = small_config();
  c.strategy = attack::MaliciousStrategyConfig::with_effectiveness(0.0);
  c.paper_wormhole = false;
  SecureLocalizationSystem system(c);
  const auto s = system.run();
  EXPECT_EQ(s.malicious_revoked, 0u);
  EXPECT_EQ(s.avg_affected_per_malicious, 0.0);  // dormant = harmless
}

TEST(SystemIntegration, DeterministicForSameSeed) {
  SystemConfig c = small_config();
  c.strategy = attack::MaliciousStrategyConfig::with_effectiveness(0.5);
  SecureLocalizationSystem a(c), b(c);
  const auto sa = a.run();
  const auto sb = b.run();
  EXPECT_EQ(sa.malicious_revoked, sb.malicious_revoked);
  EXPECT_EQ(sa.benign_revoked, sb.benign_revoked);
  EXPECT_EQ(sa.raw.alerts_submitted, sb.raw.alerts_submitted);
  EXPECT_EQ(sa.affected_sensor_references, sb.affected_sensor_references);
  EXPECT_DOUBLE_EQ(sa.mean_localization_error_ft,
                   sb.mean_localization_error_ft);
}

TEST(SystemIntegration, RunTwiceRejected) {
  SecureLocalizationSystem system(small_config());
  system.run();
  EXPECT_THROW(system.run(), std::logic_error);
}

TEST(SystemConfigValidation, SloRulesWithoutTelemetryAreRejected) {
  // The monitors are only fed by telemetry windows: without them the rules
  // would never be evaluated.
  SystemConfig c = small_config();
  c.slo_rules = obs::parse_slo_spec("tx rate(channel.tx) >= 0");
  EXPECT_THROW(SecureLocalizationSystem{c}, std::invalid_argument);
  c.telemetry.enabled = true;
  EXPECT_NO_THROW(SecureLocalizationSystem{c});
}

TEST(SystemConfigValidation, StormFloodWithoutCollusionIsRejected) {
  // The flood reuses the colluder set, so without collusion nothing would
  // be scheduled.
  SystemConfig c = small_config();
  c.storm.flood_alerts_per_colluder = 10;
  EXPECT_THROW(SecureLocalizationSystem{c}, std::invalid_argument);
  c.collusion = true;
  EXPECT_NO_THROW(SecureLocalizationSystem{c});
}

TEST(SystemConfigValidation, ProbabilitiesOutsideUnitIntervalAreRejected) {
  // NaN fails every comparison, so a check written as p < 0 || p > 1
  // would let it run.
  for (double SystemConfig::*field :
       {&SystemConfig::wormhole_detection_rate,
        &SystemConfig::alert_loss_probability}) {
    for (const double bad :
         {-0.1, 2.0, std::numeric_limits<double>::quiet_NaN()}) {
      SystemConfig c = small_config();
      c.*field = bad;
      EXPECT_THROW(SecureLocalizationSystem{c}, std::invalid_argument);
    }
  }
}

/// Expects the constructor to reject `c` with an error naming `field`.
void expect_rejected(const SystemConfig& c, const std::string& field) {
  try {
    SecureLocalizationSystem system(c);
    ADD_FAILURE() << "accepted a bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(SystemConfigValidation, ZeroDetectingIdsAreRejected) {
  // Without detecting IDs no beacon probes, and the detection rate is 0.
  SystemConfig c = small_config();
  c.detecting_ids = 0;
  expect_rejected(c, "detecting_ids");
  c.detecting_ids = 1;
  EXPECT_NO_THROW(SecureLocalizationSystem{c});
}

TEST(SystemConfigValidation, SensorPhaseBeforeProbePhaseIsRejected) {
  SystemConfig c = small_config();
  c.probe_phase_start = 10 * sim::kSecond;
  c.sensor_phase_start = c.probe_phase_start - 1;
  expect_rejected(c, "sensor_phase_start");
  c.sensor_phase_start = c.probe_phase_start;
  EXPECT_NO_THROW(SecureLocalizationSystem{c});
}

TEST(SystemConfigValidation, NegativeProbePhaseStartIsRejected) {
  // The flood starts at probe_phase_start: an alert due before 0 used to
  // throw "time in the past" from inside run().
  SystemConfig c = small_config();
  c.collusion = true;
  c.storm.flood_alerts_per_colluder = 10;
  c.probe_phase_start = -sim::kSecond;
  expect_rejected(c, "probe_phase_start");
  c.probe_phase_start = 0;
  EXPECT_NO_THROW(SecureLocalizationSystem{c});
}

TEST(SystemConfigValidation, NegativeStaggerIsRejected) {
  // A schedule that runs backwards used to throw from inside run().
  SystemConfig c = small_config();
  c.transmission_stagger = -1;
  expect_rejected(c, "transmission_stagger");
  c.transmission_stagger = 0;  // every probe of a node at one instant
  EXPECT_NO_THROW(SecureLocalizationSystem{c});
}

TEST(SystemConfigValidation, PlannedTimesPastSimTimeAreRejected) {
  // Each used to overflow SimTime (undefined behaviour) in the schedule
  // arithmetic of run(). Every bound names the fields it adds up.
  constexpr sim::SimTime kMax = std::numeric_limits<sim::SimTime>::max();
  SystemConfig c = small_config();
  c.transmission_stagger = kMax / 2;
  expect_rejected(c, "transmission_stagger");
  c = small_config();
  c.sensor_phase_start = kMax - 1;
  expect_rejected(c, "sensor_phase_start");
  // Probes and queries fit, the finalize time does not.
  c = small_config();
  c.detecting_ids = 1;
  c.sensor_phase_start = kMax - 100 * c.transmission_stagger;
  expect_rejected(c, "finalize time");
  // A sensor that reboots restarts its queries then.
  c = small_config();
  c.faults.crashes.push_back(
      {sim::kNonBeaconIdBase, sim::kSecond, kMax - sim::kMillisecond});
  expect_rejected(c, "faults.crashes");
  // The flood's last alert.
  c = small_config();
  c.collusion = true;
  c.storm.flood_alerts_per_colluder = 10;
  c.probe_phase_start = sim::kSecond;
  c.sensor_phase_start = 2 * sim::kSecond;
  c.storm.duration_ns = kMax;
  expect_rejected(c, "storm.duration_ns");
}

TEST(SystemConfigValidation, NonPositiveZipfExponentIsRejected) {
  // The Zipf sampler used to throw from inside run().
  for (const double bad :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    SystemConfig c = small_config();
    c.collusion = true;
    c.storm.flood_alerts_per_colluder = 10;
    c.storm.zipf_exponent = bad;
    expect_rejected(c, "zipf_exponent");
  }
}

TEST(SystemConfigValidation, NonPositiveStormDurationIsRejected) {
  // A negative window used to run with every flood alert at one instant.
  for (const sim::SimTime bad : {sim::SimTime{-5}, sim::SimTime{0}}) {
    SystemConfig c = small_config();
    c.collusion = true;
    c.storm.flood_alerts_per_colluder = 10;
    c.storm.duration_ns = bad;
    expect_rejected(c, "duration_ns");
  }
}

TEST(SystemConfigValidation, NonFiniteOrNonPositiveRangeIsRejected) {
  // A NaN range used to fail deep inside the RTT calibration, under a
  // histogram's name.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 0.0,
                           -150.0}) {
    SystemConfig c = small_config();
    c.deployment.comm_range_ft = bad;
    expect_rejected(c, "comm_range_ft");
  }
}

TEST(SystemConfigValidation, NonFiniteRangingBoundsAreRejected) {
  // A NaN or infinite error bound used to construct a system in which
  // every measured distance read 0 ft and no malicious beacon was revoked;
  // a NaN timing parameter failed in the RTT calibration under no field's
  // name.
  using Set = void (*)(SystemConfig&, double);
  const std::pair<const char*, Set> fields[] = {
      {"max_error_ft",
       [](SystemConfig& c, double v) { c.rssi.max_error_ft = v; }},
      {"path_loss_exponent",
       [](SystemConfig& c, double v) { c.rssi.path_loss_exponent = v; }},
      {"reference_distance_ft",
       [](SystemConfig& c, double v) { c.rssi.reference_distance_ft = v; }},
      {"shadowing_sigma_db",
       [](SystemConfig& c, double v) { c.rssi.shadowing_sigma_db = v; }},
      {"max_sync_error_ns",
       [](SystemConfig& c, double v) { c.toa.max_sync_error_ns = v; }},
      {"edge_base_cycles",
       [](SystemConfig& c, double v) { c.timing.edge_base_cycles = v; }},
      {"edge_jitter_cycles",
       [](SystemConfig& c, double v) { c.timing.edge_jitter_cycles = v; }},
  };
  for (const auto& [field, set] : fields) {
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
      SystemConfig c = small_config();
      set(c, bad);
      expect_rejected(c, field);
    }
  }
}

TEST(SystemConfigValidation, ClearThresholdAboveQuarantineThresholdIsRejected) {
  // Quarantine needs evidence above tau2 and clears below clear_threshold,
  // so a clear_threshold above tau2 clears every quarantine at once.
  SystemConfig c = small_config();
  c.revocation.lifecycle.enabled = true;
  for (const double bad : {100.0, std::numeric_limits<double>::quiet_NaN()}) {
    c.revocation.lifecycle.clear_threshold = bad;
    expect_rejected(c, "clear_threshold");
  }
  c.revocation.lifecycle.clear_threshold =
      static_cast<double>(c.revocation.alert_threshold);
  EXPECT_NO_THROW(SecureLocalizationSystem{c});
  // The lifecycle off ignores the threshold.
  c.revocation.lifecycle.enabled = false;
  c.revocation.lifecycle.clear_threshold = 100.0;
  EXPECT_NO_THROW(SecureLocalizationSystem{c});
}

TEST(SystemConfigValidation, UnusableArqIsRejectedWhenEnabled) {
  // The first request's timeout used to throw inside run(), and a timeout
  // past SimTime's range only on the retry that reached it: the default
  // 250 ms doubled 64 times is about 4.6e27 ns, past 2^63 (9.2e18).
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::function<void(sim::ArqConfig&)>> breaks = {
      [](sim::ArqConfig& a) { a.backoff_factor = kNaN; },
      [](sim::ArqConfig& a) { a.backoff_factor = 0.5; },
      [](sim::ArqConfig& a) { a.jitter_fraction = kNaN; },
      [](sim::ArqConfig& a) { a.jitter_fraction = 1.0; },
      [](sim::ArqConfig& a) { a.jitter_fraction = 1.5; },
      [](sim::ArqConfig& a) { a.initial_timeout_ns = 0; },
      [](sim::ArqConfig& a) { a.initial_timeout_ns = -sim::kMillisecond; },
      [](sim::ArqConfig& a) { a.max_retries = 64; },
  };
  for (const auto& make_bad : breaks) {
    SystemConfig c = small_config();
    make_bad(c.arq);
    c.arq.enabled = true;
    expect_rejected(c, "ArqConfig");
    // ARQ off reads none of it.
    c.arq.enabled = false;
    EXPECT_NO_THROW(SecureLocalizationSystem{c});
  }
  SystemConfig c = small_config();
  c.arq.enabled = true;
  EXPECT_NO_THROW(SecureLocalizationSystem{c});
}

TEST(SystemConfigValidation, BadCustomWormholeIsRejected) {
  // A NaN exit range used to run with no wormhole deliveries, a NaN mouth
  // with half a tunnel, and a negative or NaN delay threw from inside
  // run() (the NaN after an undefined cast to SimTime).
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::vector<
      std::pair<std::string, std::function<void(sim::WormholeLink&)>>>
      breaks = {
          {"exit_range_ft",
           [](sim::WormholeLink& w) { w.exit_range_ft = kNaN; }},
          {"mouth_b", [](sim::WormholeLink& w) { w.mouth_b.x = kNaN; }},
          {"extra_delay_cycles",
           [](sim::WormholeLink& w) { w.extra_delay_cycles = -1.0; }},
          {"extra_delay_cycles",
           [](sim::WormholeLink& w) { w.extra_delay_cycles = kNaN; }},
      };
  for (const auto& [field, make_bad] : breaks) {
    SystemConfig c = small_config();
    sim::WormholeLink link;
    link.mouth_a = {100, 100};
    link.mouth_b = {400, 300};
    link.exit_range_ft = c.deployment.comm_range_ft;
    make_bad(link);
    c.custom_wormholes.push_back(link);
    expect_rejected(c, field);
  }
}

TEST(SystemIntegration, WormholeAloneCausesNoRevocations) {
  // Benign-only network with the paper wormhole: the detector catches 90%
  // of tunneled probes and tau2 = 2 absorbs the rest; benign beacons
  // should (almost) never be revoked. We assert none for this seed.
  SystemConfig c = small_config();
  c.deployment.total_nodes = 1000;
  c.deployment.beacon_count = 100;
  c.deployment.malicious_beacon_count = 0;
  c.deployment.field = util::Rect::square(1000.0);
  c.paper_wormhole = true;
  SecureLocalizationSystem system(c);
  const auto s = system.run();
  EXPECT_LE(s.benign_revoked, 1u);
  // Sensors near the wormhole mouths discard most tunneled references.
  EXPECT_GT(s.raw.sensor_discarded_wormhole, 0u);
}

TEST(SystemIntegration, CollusionRevokesBoundedBenignSet) {
  SystemConfig c = small_config();
  c.deployment.total_nodes = 1000;
  c.deployment.beacon_count = 100;
  c.deployment.malicious_beacon_count = 10;
  c.deployment.field = util::Rect::square(1000.0);
  c.collusion = true;
  c.paper_wormhole = false;
  c.strategy = attack::MaliciousStrategyConfig::with_effectiveness(0.0);
  SecureLocalizationSystem system(c);
  const auto s = system.run();
  // Paper bound: N_a (tau1+1) / (tau2+1) = 10 * 11 / 3 ~ 36.7.
  EXPECT_GE(s.benign_revoked, 30u);
  EXPECT_LE(s.benign_revoked, 40u);
  EXPECT_GT(s.raw.collusion_alerts_submitted, 0u);
}

TEST(SystemIntegration, MoreDetectingIdsImproveDetection) {
  SystemConfig c = small_config();
  c.deployment.total_nodes = 600;
  c.deployment.beacon_count = 60;
  c.deployment.malicious_beacon_count = 6;
  c.deployment.field = util::Rect::square(800.0);
  c.strategy = attack::MaliciousStrategyConfig::with_effectiveness(0.15);
  c.paper_wormhole = false;

  ExperimentConfig weak{c, 4};
  weak.base.detecting_ids = 1;
  ExperimentConfig strong{c, 4};
  strong.base.detecting_ids = 8;
  const auto weak_result = run_experiment(weak);
  const auto strong_result = run_experiment(strong);
  EXPECT_GT(strong_result.detection_rate.mean(),
            weak_result.detection_rate.mean());
}

TEST(SystemIntegration, ProbesAreAnsweredAndMeasured) {
  SystemConfig c = small_config();
  SecureLocalizationSystem system(c);
  const auto s = system.run();
  EXPECT_GT(s.raw.probes_sent, 0u);
  EXPECT_GT(s.raw.probe_replies, 0u);
  EXPECT_LE(s.raw.probe_replies, s.raw.probes_sent);
  EXPECT_GT(s.raw.sensor_requests, 0u);
  EXPECT_GT(s.raw.sensor_replies, 0u);
  EXPECT_EQ(s.raw.mac_failures, 0u);  // all traffic is authenticated
}

TEST(SystemIntegration, RttCalibrationMatchesFigure4Band) {
  SecureLocalizationSystem system(small_config());
  const auto s = system.run();
  // Empirical x_max from the Figure-4 calibration sits inside, but near,
  // the theoretical 7124-cycle envelope edge.
  EXPECT_GT(s.rtt_x_max_cycles, 6800.0);
  EXPECT_LE(s.rtt_x_max_cycles, 7130.0);
}

TEST(SystemIntegration, SummaryRatesConsistent) {
  SystemConfig c = small_config();
  c.strategy = attack::MaliciousStrategyConfig::with_effectiveness(0.7);
  SecureLocalizationSystem system(c);
  const auto s = system.run();
  EXPECT_NEAR(s.detection_rate,
              static_cast<double>(s.malicious_revoked) /
                  static_cast<double>(s.malicious_beacons),
              1e-12);
  EXPECT_NEAR(s.false_positive_rate,
              static_cast<double>(s.benign_revoked) /
                  static_cast<double>(s.benign_beacons),
              1e-12);
  EXPECT_EQ(s.sensors, s.sensors_localized + s.sensors_unlocalized);
}

TEST(SystemIntegration, GeographicLeashDetectorWorksEndToEnd) {
  // Swap the paper's p_d abstraction for the concrete geographic leash:
  // detecting beacons (who know their positions) catch every wormhole
  // crossing deterministically, so no benign beacon is ever revoked, and
  // malicious detection still works.
  SystemConfig c = small_config();
  c.deployment.total_nodes = 1000;
  c.deployment.beacon_count = 100;
  c.deployment.malicious_beacon_count = 10;
  c.deployment.field = util::Rect::square(1000.0);
  c.wormhole_detector_type =
      SystemConfig::WormholeDetectorType::kGeographicLeash;
  c.strategy = attack::MaliciousStrategyConfig::with_effectiveness(0.6);
  SecureLocalizationSystem system(c);
  const auto s = system.run();
  EXPECT_EQ(s.benign_revoked, 0u);  // leash never misses a tunnel crossing
  EXPECT_GE(s.detection_rate, 0.6);
}

TEST(SystemIntegration, SlowWormholeCaughtByRttStage) {
  // A store-and-forward wormhole (one packet of latency per crossing)
  // with the wormhole detector fully disabled: the RTT stage alone must
  // keep benign beacons safe and make sensors drop the tunnelled
  // references — the §2.2.2 defence-in-depth path.
  SystemConfig c = small_config();
  c.deployment.total_nodes = 1000;
  c.deployment.beacon_count = 100;
  c.deployment.malicious_beacon_count = 0;
  c.deployment.field = util::Rect::square(1000.0);
  c.wormhole_detection_rate = 0.0;  // detector blind
  c.paper_wormhole = false;
  // Same mouths as the paper's wormhole, but slow (roughly one packet of
  // air time per crossing, like a real store-and-forward device).
  sim::WormholeLink link;
  link.mouth_a = {100, 100};
  link.mouth_b = {800, 700};
  link.exit_range_ft = c.deployment.comm_range_ft;
  link.extra_delay_cycles = 64.0 * 8.0 * sim::kCyclesPerBit;
  c.custom_wormholes.push_back(link);
  SecureLocalizationSystem system(c);

  const auto s = system.run();
  EXPECT_GT(s.channel.wormhole_deliveries, 0u);
  EXPECT_EQ(s.benign_revoked, 0u);
  EXPECT_EQ(s.raw.alerts_submitted, 0u);  // all flagged signals -> RTT stage
  EXPECT_GT(s.raw.probe_ignored_local_replay, 0u);
  EXPECT_GT(s.raw.sensor_discarded_rtt, 0u);
}

TEST(SystemIntegration, ToaRangingWorksEndToEnd) {
  // §2.3: the detector works with any bounded-error distance feature.
  // Swap RSSI for ToA and the whole pipeline must still function.
  SystemConfig c = small_config();
  c.ranging_type = RangingType::kToa;
  c.strategy = attack::MaliciousStrategyConfig::with_effectiveness(0.8);
  c.paper_wormhole = false;
  SecureLocalizationSystem system(c);
  const auto s = system.run();
  EXPECT_GE(s.detection_rate, 0.5);
  EXPECT_EQ(s.benign_revoked, 0u);
  EXPECT_GT(s.sensors_localized, s.sensors / 2);
  EXPECT_LT(s.mean_localization_error_ft, 10.0);
}

TEST(SystemIntegration, LossyRadioDegradesGracefully) {
  // Failure injection: 25% of deliveries dropped. The system must still
  // run to completion, lose some probes/replies, and detect less often —
  // but never crash or revoke benign beacons spuriously.
  SystemConfig c = small_config();
  c.deployment.total_nodes = 600;
  c.deployment.beacon_count = 60;
  c.deployment.malicious_beacon_count = 6;
  c.deployment.field = util::Rect::square(800.0);
  c.strategy = attack::MaliciousStrategyConfig::with_effectiveness(0.5);
  c.paper_wormhole = false;

  ExperimentConfig lossless{c, 3};
  ExperimentConfig lossy{c, 3};
  lossy.base.faults.loss_probability = 0.25;
  lossy.keep_trial_summaries = true;

  const auto clean = run_experiment(lossless);
  const auto degraded = run_experiment(lossy);
  for (const auto& trial : degraded.trials)
    EXPECT_GT(trial.channel.dropped_by_fault, 0u);
  EXPECT_LE(degraded.detection_rate.mean(), clean.detection_rate.mean());
  EXPECT_GT(degraded.detection_rate.mean(), 0.0);
  EXPECT_LT(degraded.false_positive_rate.mean(), 0.05);
}

TEST(SystemIntegration, AlertLogMatchesCounters) {
  SystemConfig c = small_config();
  c.strategy = attack::MaliciousStrategyConfig::with_effectiveness(0.8);
  SecureLocalizationSystem system(c);
  const auto s = system.run();
  EXPECT_EQ(s.raw.alert_log.size(),
            s.raw.alerts_submitted + s.raw.collusion_alerts_submitted);
  for (const auto& a : s.raw.alert_log) {
    EXPECT_TRUE(sim::is_beacon_id(a.reporter));
    EXPECT_TRUE(sim::is_beacon_id(a.target));
    EXPECT_FALSE(a.collusion);  // collusion disabled in this config
  }
}

TEST(SystemIntegration, DetectionImprovesLocalizationUnderAttack) {
  // The headline end-to-end claim: with the same deployment and the same
  // attackers, enabling the detection + revocation pipeline improves the
  // sensors' localization accuracy.
  SystemConfig attacked = small_config();
  attacked.deployment.total_nodes = 1000;
  attacked.deployment.beacon_count = 100;
  attacked.deployment.malicious_beacon_count = 15;
  attacked.deployment.field = util::Rect::square(1000.0);
  attacked.strategy =
      attack::MaliciousStrategyConfig::with_effectiveness(0.9);
  attacked.paper_wormhole = false;
  SystemConfig defended = attacked;  // identical seed -> same deployment
  attacked.revocation.alert_threshold = 1000000;  // revocation off

  SecureLocalizationSystem off(attacked), on(defended);
  const auto s_off = off.run();
  const auto s_on = on.run();
  EXPECT_GT(s_off.mean_localization_error_ft,
            2.0 * s_on.mean_localization_error_ft);
  EXPECT_GT(s_off.avg_affected_per_malicious,
            s_on.avg_affected_per_malicious);
  EXPECT_GT(s_on.detection_rate, 0.7);
}

TEST(SystemIntegration, CommittedAlertsAreBookedOnceWithAndWithoutPipeline) {
  // An alert the station counts is booked once, whichever path counted it:
  // the direct call with ingestion off, or a shard commit with it on.
  SystemConfig c = small_config();
  c.seed = 1;
  c.collusion = true;
  for (const bool pipeline : {false, true}) {
    if (pipeline) {
      c.ingest.shard.count = 2;
      c.ingest.admission.enabled = true;
    }
    SecureLocalizationSystem system(c);
    const auto s = system.run();
    const SystemContext& ctx = system.context();
    EXPECT_GT(s.base_station.revocations, 0u) << "pipeline " << pipeline;
    EXPECT_EQ(ctx.metrics.revocation_times.size(), s.base_station.revocations)
        << "pipeline " << pipeline;
    EXPECT_EQ(ctx.alert_counter_hist->count(), s.base_station.alerts_accepted)
        << "pipeline " << pipeline;
  }
}

TEST(Experiment, AggregatesRequestedTrials) {
  ExperimentConfig e{small_config(), 3};
  e.keep_trial_summaries = true;
  const auto agg = run_experiment(e);
  EXPECT_EQ(agg.detection_rate.count(), 3u);
  EXPECT_EQ(agg.trials.size(), 3u);
}

TEST(Experiment, ModelParamsMirrorConfig) {
  const SystemConfig c = small_config();
  const auto p = model_params_for(c, 12.4);
  EXPECT_EQ(p.total_nodes, c.deployment.total_nodes);
  EXPECT_EQ(p.beacon_count, c.deployment.beacon_count);
  EXPECT_EQ(p.malicious_count, c.deployment.malicious_beacon_count);
  EXPECT_EQ(p.requesters_per_beacon, 12u);
  EXPECT_EQ(p.wormhole_count, 1u);  // paper wormhole on by default
  EXPECT_EQ(p.detecting_ids, c.detecting_ids);
}

}  // namespace
}  // namespace sld::core
