// Extension bench: what secure location discovery buys the protocols that
// consume locations. GPSR-style geographic forwarding routes over the
// *believed* positions produced by localization; this bench measures the
// end-to-end delivery rate with (a) ground-truth positions, (b) positions
// localized under attack with revocation disabled, and (c) positions
// localized under the full detection + revocation pipeline.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "bench_runner.hpp"
#include "core/executor.hpp"
#include "core/nodes.hpp"
#include "core/secure_localization.hpp"
#include "routing/gpsr.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

/// Builds the routing topology for a finished trial: physical links from
/// true positions, believed positions from each sensor's localization
/// result (nodes that failed to localize keep their last-known truth,
/// the common fallback).
sld::routing::Topology topology_for(
    sld::core::SecureLocalizationSystem& system) {
  const auto& deployment = system.deployment();
  sld::routing::Topology topo(deployment.config.comm_range_ft);
  for (const auto& n : deployment.nodes) topo.add_node(n.id, n.position);
  for (const auto* node : system.network().nodes()) {
    const auto* sensor = dynamic_cast<const sld::core::SensorNode*>(node);
    if (sensor != nullptr && sensor->result().has_value())
      topo.set_believed_position(sensor->id(), sensor->result()->position);
  }
  topo.build_links();
  return topo;
}

double delivery_rate(const sld::routing::Topology& topo,
                     std::uint64_t pair_seed, std::size_t pairs) {
  sld::routing::GpsrRouter router(&topo);
  sld::util::Rng rng(pair_seed);
  const auto& ids = topo.node_ids();
  std::size_t delivered = 0, attempted = 0;
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto src = ids[rng.uniform_u64(ids.size())];
    const auto dst = ids[rng.uniform_u64(ids.size())];
    if (src == dst) continue;
    ++attempted;
    if (router.route(src, dst).delivered()) ++delivered;
  }
  return attempted ? static_cast<double>(delivered) /
                         static_cast<double>(attempted)
                   : 0.0;
}

/// Everything one trial contributes to the fold, computed inside the
/// run_indexed worker (the topologies need the live systems, so routing
/// runs there too and only plain numbers cross the thread boundary).
struct TrialResult {
  sld::core::TrialSummary attacked_summary;
  sld::core::TrialSummary secured_summary;
  double truth_r = 0.0;
  double attacked_r = 0.0;
  double secured_r = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = sld::bench::BenchArgs::parse(argc, argv);
  const std::size_t pairs = args.fast ? 100 : 300;

  return sld::bench::run_main(
      "ext_routing_impact", args, [&](sld::bench::BenchIteration& it) {
        const auto results = sld::core::run_indexed(
            args.trials, args.jobs, [&](std::size_t t) {
              const std::uint64_t seed = args.seed + t;

              sld::core::SystemConfig attacked_cfg;
              attacked_cfg.strategy =
                  sld::attack::MaliciousStrategyConfig::with_effectiveness(
                      0.8);
              attacked_cfg.seed = seed;
              // Isolate the compromised-beacon effect: no wormhole here.
              attacked_cfg.paper_wormhole = false;
              attacked_cfg.revocation.alert_threshold = 1000000;  // off
              attacked_cfg.memstats = args.memstats;
              sld::core::SecureLocalizationSystem attacked(attacked_cfg);
              TrialResult r;
              r.attacked_summary = attacked.run();
              auto attacked_topo = topology_for(attacked);

              sld::core::SystemConfig secured_cfg = attacked_cfg;
              secured_cfg.revocation =
                  sld::revocation::RevocationConfig{};  // on
              sld::core::SecureLocalizationSystem secured(secured_cfg);
              r.secured_summary = secured.run();
              auto secured_topo = topology_for(secured);

              // Ground truth baseline shares the secured deployment's
              // physics.
              sld::routing::Topology truth_topo(
                  secured.deployment().config.comm_range_ft);
              for (const auto& n : secured.deployment().nodes)
                truth_topo.add_node(n.id, n.position);
              truth_topo.build_links();

              r.truth_r = delivery_rate(truth_topo, seed * 13 + 1, pairs);
              r.attacked_r =
                  delivery_rate(attacked_topo, seed * 13 + 1, pairs);
              r.secured_r =
                  delivery_rate(secured_topo, seed * 13 + 1, pairs);
              return r;
            });

        sld::util::RunningStat truth_rate, attacked_rate, secured_rate;
        sld::util::RunningStat attacked_err, secured_err;
        for (const auto& r : results) {
          it.add_trial(r.attacked_summary);
          it.add_trial(r.secured_summary);
          truth_rate.add(r.truth_r);
          attacked_rate.add(r.attacked_r);
          secured_rate.add(r.secured_r);
          attacked_err.add(r.attacked_summary.mean_localization_error_ft);
          secured_err.add(r.secured_summary.mean_localization_error_ft);
        }

        sld::util::Table table({"positions", "gpsr_delivery_rate",
                                "mean_localization_error_ft"});
        table.row().cell("ground_truth").cell(truth_rate.mean()).cell(0.0);
        table.row()
            .cell("attacked_no_revocation")
            .cell(attacked_rate.mean())
            .cell(attacked_err.mean());
        table.row()
            .cell("attacked_with_revocation")
            .cell(secured_rate.mean())
            .cell(secured_err.mean());
        table.print_csv(
            it.out(),
            "Extension: GPSR delivery rate over believed positions — "
            "ground truth vs attacked (P=0.8) vs secured");
      });
}
