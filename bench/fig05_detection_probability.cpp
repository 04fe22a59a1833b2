// Figure 5: relationship between the per-detecting-node detection
// probability P_r = 1 - (1 - P)^m and the attack effectiveness P, for
// m in {1, 2, 4, 8} detecting IDs. Analytic curves plus a Monte-Carlo
// cross-check through the actual Detector pipeline.
#include <iostream>

#include "analysis/formulas.hpp"
#include "attack/strategy.hpp"
#include "bench_common.hpp"
#include "bench_runner.hpp"
#include "detection/detector.hpp"
#include "ranging/rssi.hpp"
#include "ranging/rtt.hpp"
#include "util/table.hpp"

namespace {

/// Fraction of simulated detecting nodes (with `m` detecting IDs) that
/// catch a malicious beacon of effectiveness `P`, via the full pipeline.
double monte_carlo_pr(double P, std::size_t m, std::size_t nodes,
                      sld::util::Rng& rng) {
  using namespace sld;
  ranging::ProbabilisticWormholeDetector wh(0.9);
  detection::DetectorConfig cfg;
  cfg.replay.rtt_x_max_cycles = 7124.0;
  detection::Detector detector(cfg, &wh);
  ranging::RssiRangingModel rssi{ranging::RssiConfig{}};
  ranging::MoteTimingModel timing;

  const auto strategy_cfg =
      attack::MaliciousStrategyConfig::with_effectiveness(P);
  const util::Vec2 beacon_pos{500, 500};
  const util::Vec2 detector_pos{460, 460};
  const double d = util::distance(beacon_pos, detector_pos);

  std::size_t detected = 0;
  sim::NodeId next_id = 1;
  for (std::size_t node = 0; node < nodes; ++node) {
    attack::MaliciousBeaconStrategy strategy(strategy_cfg, rng());
    bool caught = false;
    for (std::size_t k = 0; k < m && !caught; ++k) {
      const auto reply = strategy.craft_reply(next_id++, 1, beacon_pos);
      detection::SignalObservation obs;
      obs.receiver_position = detector_pos;
      obs.claimed_position = reply.claimed_position;
      obs.measured_distance_ft =
          rssi.measure_manipulated(d, reply.range_manipulation_ft, rng);
      obs.observed_rtt_cycles =
          timing.sample_rtt_cycles(d, rng) + reply.processing_bias_cycles;
      obs.target_range_ft = 150.0;
      obs.sender_faked_wormhole_indication = reply.fake_wormhole_indication;
      caught = detector.evaluate(obs, rng) == detection::ProbeOutcome::kAlert;
    }
    if (caught) ++detected;
  }
  return static_cast<double>(detected) / static_cast<double>(nodes);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = sld::bench::BenchArgs::parse(argc, argv);
  const std::size_t mc_nodes = args.fast ? 500 : 5000;

  return sld::bench::run_main(
      "fig05_detection_probability", args,
      [&](sld::bench::BenchIteration& it) {
        sld::util::Rng rng(args.seed);
        sld::util::Table table({"P", "m", "Pr_analytic", "Pr_monte_carlo"});
        for (const std::size_t m : {1u, 2u, 4u, 8u}) {
          for (double P = 0.0; P <= 1.0 + 1e-9; P += 0.05) {
            if (P > 1.0) P = 1.0;
            table.row()
                .cell(P)
                .cell(static_cast<long long>(m))
                .cell(sld::analysis::detection_probability(P, m))
                .cell(monte_carlo_pr(P, m, mc_nodes, rng));
            it.add_events(mc_nodes);
          }
        }
        table.print_csv(
            it.out(),
            "Figure 5: P_r vs P for m in {1,2,4,8} detecting IDs "
            "(analytic + Monte-Carlo through the Detector pipeline)");
      });
}
