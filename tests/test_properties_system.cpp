// Whole-system metamorphic properties: bit-for-bit seed determinism
// (including traced vs untraced runs), directional monotonicity of
// detection in attack effectiveness and of revocation latency in loss
// rate, and fast-scale theory-vs-simulation agreement.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "analysis/formulas.hpp"
#include "core/config.hpp"
#include "core/secure_localization.hpp"
#include "obs/trace.hpp"
#include "prop/generators.hpp"
#include "prop/prop.hpp"

namespace {

using namespace sld;

/// Down-scaled paper density: ~0.001 nodes/ft^2, 10% beacons.
core::SystemConfig small_config(std::uint64_t seed) {
  core::SystemConfig c;
  c.deployment.total_nodes = 200;
  c.deployment.beacon_count = 20;
  c.deployment.malicious_beacon_count = 3;
  c.deployment.field = util::Rect::square(450.0);
  c.rtt_calibration_samples = 500;
  c.seed = seed;
  return c;
}

/// Every TrialSummary field except metrics_json (whose wall-clock gauges
/// are deliberately not a function of the seed), rendered exactly.
std::string summary_digest(const core::TrialSummary& s) {
  std::ostringstream os;
  os.precision(17);
  os << s.benign_beacons << '|' << s.malicious_beacons << '|' << s.sensors
     << '|' << s.avg_requesters_per_malicious << '|' << s.malicious_revoked
     << '|' << s.benign_revoked << '|' << s.detection_rate << '|'
     << s.false_positive_rate << '|' << s.avg_affected_per_malicious << '|'
     << s.affected_sensor_references << '|' << s.sensors_localized << '|'
     << s.sensors_unlocalized << '|' << s.mean_localization_error_ft << '|'
     << s.max_localization_error_ft << '|'
     << s.mean_malicious_revocation_latency_ms << '|' << s.radio_energy_uj
     << '|' << s.rtt_x_max_cycles << '|' << s.base_station.alerts_received
     << '|' << s.base_station.alerts_accepted << '|'
     << s.base_station.revocations << '|' << s.channel.transmissions << '|'
     << s.channel.delivery_attempts << '|' << s.channel.deliveries << '|'
     << s.channel.dropped_by_fault << '|'
     << s.channel.duplicates << '|' << s.channel.corrupted << '|'
     << s.channel.crashed_drops;
  return os.str();
}

core::TrialSummary run_trial(const core::SystemConfig& config) {
  core::SecureLocalizationSystem system(config);
  return system.run();
}

TEST(SystemProperty, TrialIsAPureFunctionOfConfigAndSeed) {
  // Repeated runs of the same (config, seed) — including fault injection,
  // ARQ, and lossy alert transport — must agree on every summary field.
  struct Case {
    std::uint64_t seed;
    bool faults;
    bool arq;
  };
  prop::Gen<Case> gen;
  gen.generate = [](util::Rng& rng) {
    return Case{rng(), rng.bernoulli(0.5), rng.bernoulli(0.5)};
  };
  gen.show = [](const Case& c) {
    std::ostringstream os;
    os << "{seed=" << c.seed << " faults=" << c.faults << " arq=" << c.arq
       << "}";
    return os.str();
  };
  prop::Config cfg;
  cfg.iterations = 4;
  EXPECT_TRUE(prop::forall(
      "same (config, seed) => identical TrialSummary", gen,
      [](const Case& c) {
        core::SystemConfig config = small_config(c.seed);
        if (c.faults) {
          config.faults.loss_probability = 0.1;
          config.faults.duplicate_probability = 0.05;
          config.faults.corruption_probability = 0.05;
          config.alert_loss_probability = 0.1;
        }
        config.arq.enabled = c.arq;
        return summary_digest(run_trial(config)) ==
               summary_digest(run_trial(config));
      },
      cfg));
}

TEST(SystemProperty, TracingDoesNotPerturbTheTrial) {
  // Tracing draws no randomness, so a traced run must be bit-for-bit
  // identical to an untraced one.
  core::SystemConfig config = small_config(23);
  config.faults.loss_probability = 0.1;
  config.arq.enabled = true;
  const std::string untraced = summary_digest(run_trial(config));

  obs::MemorySink sink;
  config.trace_sink = &sink;
  const std::string traced = summary_digest(run_trial(config));
  EXPECT_EQ(untraced, traced);
  EXPECT_FALSE(sink.lines().empty());
}

TEST(SystemProperty, DetectionRateMonotoneInAttackEffectiveness) {
  // Directional check over fixed seeds: a fully-effective attacker is
  // detected at least as often (summed over seeds) as a quarter-effective
  // one — P_r = 1 - (1 - P)^m is increasing in P.
  double detected_low = 0.0, detected_high = 0.0;
  for (std::uint64_t seed : {3ULL, 7ULL, 13ULL}) {
    core::SystemConfig config = small_config(seed);
    config.paper_wormhole = false;
    config.strategy = attack::MaliciousStrategyConfig::with_effectiveness(0.25);
    detected_low += run_trial(config).detection_rate;
    config.strategy = attack::MaliciousStrategyConfig::with_effectiveness(1.0);
    detected_high += run_trial(config).detection_rate;
  }
  EXPECT_GE(detected_high, detected_low);
  EXPECT_GT(detected_high, 0.0);
}

TEST(SystemProperty, RevocationLatencyMonotoneInLossRate) {
  // With ARQ on, a lossy channel can only delay alert pipelines: summed
  // over seeds, mean revocation latency under 25% loss must be at least
  // the lossless latency.
  double lossless = 0.0, lossy = 0.0;
  std::size_t lossless_revoked = 0, lossy_revoked = 0;
  for (std::uint64_t seed : {5ULL, 11ULL, 17ULL}) {
    core::SystemConfig config = small_config(seed);
    config.paper_wormhole = false;
    config.strategy = attack::MaliciousStrategyConfig::with_effectiveness(1.0);
    config.arq.enabled = true;

    auto summary = run_trial(config);
    lossless += summary.mean_malicious_revocation_latency_ms;
    lossless_revoked += summary.malicious_revoked;

    config.faults.loss_probability = 0.25;
    config.alert_loss_probability = 0.25;
    summary = run_trial(config);
    lossy += summary.mean_malicious_revocation_latency_ms;
    lossy_revoked += summary.malicious_revoked;
  }
  ASSERT_GT(lossless_revoked, 0u);
  ASSERT_GT(lossy_revoked, 0u);
  EXPECT_GE(lossy, lossless);
}

TEST(SystemProperty, TheoryVsSimAgreesAtFastScale) {
  // The closed-form P_d (with N_c measured from the trials themselves)
  // must track the simulated detection rate within a loose fast-scale CI.
  const double P = 1.0;
  double sim_rate = 0.0, n_c = 0.0;
  const int kSeeds = 3;
  for (std::uint64_t seed : {29ULL, 31ULL, 37ULL}) {
    core::SystemConfig config = small_config(seed);
    config.paper_wormhole = false;
    config.strategy = attack::MaliciousStrategyConfig::with_effectiveness(P);
    const auto summary = run_trial(config);
    sim_rate += summary.detection_rate / kSeeds;
    n_c += summary.avg_requesters_per_malicious / kSeeds;
  }
  analysis::ModelParams params;
  params.total_nodes = 200;
  params.beacon_count = 20;
  params.malicious_count = 3;
  params.wormhole_count = 0;
  params.requesters_per_beacon =
      static_cast<std::size_t>(std::max(1.0, n_c));
  const double theory = analysis::revocation_probability(params, P);
  // 9 Bernoulli-ish samples (3 malicious beacons x 3 seeds): wide bound.
  EXPECT_NEAR(sim_rate, theory, 0.35);
}

}  // namespace
