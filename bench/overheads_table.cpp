// Overheads (paper §2.3 and §3.2 "Overheads" paragraphs, quantified).
// The paper argues the scheme's costs are practical: beacon signals are
// unicast (per-requester) instead of broadcast, each benign beacon probes
// only the few beacons in its range (m packets each), and "only a limited
// number of alerts need to be delivered to the base station". This bench
// counts every message of a paper-scale trial and reports the per-node and
// per-phase communication overheads, plus the base station's workload.
#include <iostream>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "bench_runner.hpp"
#include "core/executor.hpp"
#include "core/secure_localization.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  const auto args = sld::bench::BenchArgs::parse(argc, argv);

  return sld::bench::run_main("overheads_table", args,
                              [&](sld::bench::BenchIteration& it) {
  // Per-node radio energies are read off the live channel, so each trial
  // ships them out of its run_indexed worker as (is_beacon, energy_uj)
  // pairs in deployment order; the fold below replays them in index order
  // so stdout is byte-identical at any --jobs level.
  struct TrialResult {
    sld::core::TrialSummary summary;
    std::vector<std::pair<bool, double>> node_energy;
  };
  const auto results =
      sld::core::run_indexed(args.trials, args.jobs, [&](std::size_t t) {
        sld::core::SystemConfig config;
        config.strategy =
            sld::attack::MaliciousStrategyConfig::with_effectiveness(0.3);
        config.seed = args.seed + t;
        config.memstats = args.memstats;
        sld::core::SecureLocalizationSystem system(config);
        TrialResult r;
        r.summary = system.run();
        for (const auto& spec : system.deployment().nodes) {
          const auto radio = system.network().channel().node_radio(spec.id);
          r.node_energy.emplace_back(spec.beacon, radio.energy_uj());
        }
        return r;
      });

  sld::util::RunningStat probes, probe_per_beacon, sensor_msgs,
      sensor_per_node, alerts, alerts_per_beacon, bs_processed, revocations,
      transmissions, beacon_energy, sensor_energy;
  for (const auto& r : results) {
    const auto& s = r.summary;
    it.add_trial(s);

    // Per-node radio energy, split by role.
    for (const auto& [is_beacon, energy_uj] : r.node_energy)
      (is_beacon ? beacon_energy : sensor_energy).add(energy_uj);

    const double benign = static_cast<double>(s.benign_beacons);
    const double sensors = static_cast<double>(s.sensors);
    probes.add(static_cast<double>(s.raw.probes_sent));
    probe_per_beacon.add(static_cast<double>(s.raw.probes_sent) / benign);
    sensor_msgs.add(static_cast<double>(s.raw.sensor_requests));
    sensor_per_node.add(static_cast<double>(s.raw.sensor_requests) / sensors);
    alerts.add(static_cast<double>(s.raw.alerts_submitted));
    alerts_per_beacon.add(static_cast<double>(s.raw.alerts_submitted) /
                          benign);
    bs_processed.add(static_cast<double>(s.base_station.alerts_received));
    revocations.add(static_cast<double>(s.base_station.revocations));
    transmissions.add(static_cast<double>(s.channel.transmissions));
  }

  sld::util::Table table({"quantity", "mean_per_trial", "per_node"});
  table.row()
      .cell("probe requests (m=8 IDs x in-range beacons)")
      .cell(probes.mean())
      .cell(probe_per_beacon.mean());
  table.row()
      .cell("sensor beacon requests (unicast)")
      .cell(sensor_msgs.mean())
      .cell(sensor_per_node.mean());
  table.row()
      .cell("alerts to base station")
      .cell(alerts.mean())
      .cell(alerts_per_beacon.mean());
  table.row()
      .cell("base-station alert processings")
      .cell(bs_processed.mean())
      .cell(0.0);
  table.row().cell("revocations issued").cell(revocations.mean()).cell(0.0);
  table.row()
      .cell("total radio transmissions")
      .cell(transmissions.mean())
      .cell(transmissions.mean() / 1000.0);
  table.row()
      .cell("radio energy per beacon (uJ, CC1000-class)")
      .cell(beacon_energy.mean())
      .cell(beacon_energy.max());
  table.row()
      .cell("radio energy per sensor (uJ, CC1000-class)")
      .cell(sensor_energy.mean())
      .cell(sensor_energy.max());
  table.print_csv(
      it.out(),
      "Overheads: per-phase message counts at paper scale (N=1000, "
      "N_b=100, N_a=10, m=8, P=0.3) — the paper's 'practical trade-off' "
      "claim quantified");
  it.out() << "\n# per_node column: probes per benign beacon, requests "
              "per sensor, alerts per benign beacon, transmissions per "
              "node; for the energy rows it is the per-node maximum\n";
  });
}
