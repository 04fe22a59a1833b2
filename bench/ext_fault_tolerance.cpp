// Extension bench: fault tolerance of detection + revocation.
//
// Sweeps channel loss {0, 0.05, 0.1, 0.2} x loss model {i.i.d.,
// Gilbert-Elliott bursty} and reports, with ARQ retries off vs on:
// detection rate, false-positive rate, mean malicious-revocation latency,
// and the radio-energy overhead of the retries. This is the paper's
// Figure 5/6 story re-examined without the "reliable delivery via
// retransmission" assumption: the metrics must degrade gracefully with
// loss, and retries must buy the degradation back.
// With --chaos-sweep, a second table runs the same trials under the chaos
// fault families (crash/reboot windows, a partition, clock drift, WAL-backed
// base-station outages, standby failover) and reports recovery accounting
// next to the detection metrics. Off by default: the standard sweep output
// stays byte-identical for the golden hash.
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "bench_runner.hpp"
#include "core/experiment.hpp"
#include "sim/deployment.hpp"
#include "util/table.hpp"

namespace {

sld::core::SystemConfig scaled_config(const sld::bench::BenchArgs& args) {
  sld::core::SystemConfig c;
  if (args.fast) {
    // Same density as the paper at ~1/3 scale.
    c.deployment.total_nodes = 300;
    c.deployment.beacon_count = 30;
    c.deployment.malicious_beacon_count = 3;
    c.deployment.field = sld::util::Rect::square(550.0);
    c.rtt_calibration_samples = 2000;
  }
  c.strategy = sld::attack::MaliciousStrategyConfig::with_effectiveness(0.8);
  return c;
}

// The named chaos families of the --chaos-sweep table. Node ids are valid
// at both bench scales (beacons from kFirstBeaconId, sensors from
// kNonBeaconIdBase).
std::vector<std::pair<const char*, void (*)(sld::core::SystemConfig&)>>
chaos_scenarios() {
  using sld::core::SystemConfig;
  namespace sim = sld::sim;
  static const auto crash_reboot = [](SystemConfig& c) {
    // Two benign beacons and two sensors reboot mid-probe-phase.
    for (const sim::NodeId beacon :
         {sim::kFirstBeaconId + 3, sim::kFirstBeaconId + 7}) {
      // The probe/alert burst rides the first ~0.5 s: start the window
      // inside it so in-flight reporter state is genuinely lost.
      c.faults.crashes.push_back(
          {beacon, 200 * sim::kMillisecond, 9 * sim::kSecond});
    }
    for (const sim::NodeId sensor :
         {sim::kNonBeaconIdBase + 0, sim::kNonBeaconIdBase + 11}) {
      c.faults.crashes.push_back(
          {sensor, 30 * sim::kSecond, c.sensor_phase_start + 200 * sim::kMillisecond});
    }
  };
  static const auto partition = [](SystemConfig& c) {
    sim::PartitionWindow w;
    for (sim::NodeId b = sim::kFirstBeaconId; b < sim::kFirstBeaconId + 5; ++b)
      w.side_a.push_back(b);
    // Cut while probe/alert traffic is still in the air.
    w.start = 100 * sim::kMillisecond;
    w.end = 4 * sim::kSecond;
    c.faults.partitions.push_back(std::move(w));
  };
  static const auto drift = [](SystemConfig& c) {
    c.faults.clock_drift.max_drift_ppm = 50.0;
  };
  static const auto bs_outage = [](SystemConfig& c) {
    c.failover.durable.enabled = true;
    c.failover.durable.fsync_every_records = 2;
    c.failover.primary_outages = {{0, 2 * sim::kSecond}};
  };
  static const auto standby = [](SystemConfig& c) {
    c.failover.durable.enabled = true;
    c.failover.standby_enabled = true;
    c.failover.primary_outages = {{1 * sim::kSecond, 3600 * sim::kSecond}};
  };
  static const auto combined = [](SystemConfig& c) {
    crash_reboot(c);
    partition(c);
    drift(c);
    standby(c);
  };
  return {{"none", +[](SystemConfig&) {}},
          {"crash_reboot", +crash_reboot},
          {"partition", +partition},
          {"clock_drift", +drift},
          {"bs_outage_wal", +bs_outage},
          {"standby_failover", +standby},
          {"combined", +combined}};
}

}  // namespace

int main(int argc, char** argv) {
  double burst_len = 4.0;
  std::string trace_path;
  std::string metrics_path;
  bool chaos_sweep = false;
  const auto args = sld::bench::BenchArgs::parse(
      argc, argv,
      [&](const std::string& a, const auto& next) {
        if (a == "--burst-len") {
          burst_len = sld::bench::parse_strict_double("--burst-len",
                                                      next("--burst-len"));
          // A Gilbert-Elliott burst is at least one lost packet long.
          if (burst_len < 1.0) {
            std::cerr << "--burst-len: must be at least 1\n";
            std::exit(2);
          }
          return true;
        }
        if (a == "--trace") {
          trace_path = next("--trace");
          return true;
        }
        if (a == "--metrics") {
          metrics_path = next("--metrics");
          return true;
        }
        if (a == "--chaos-sweep") {
          chaos_sweep = true;
          return true;
        }
        return false;
      },
      "  --burst-len L  Gilbert-Elliott average burst length, >= 1 "
      "(default 4)\n"
      "  --trace FILE   JSONL event trace of every trial\n"
      "  --metrics FILE per-trial metrics snapshots\n"
      "  --chaos-sweep  add a table of the chaos fault families\n");

  return sld::bench::run_main("ext_fault_tolerance", args,
                              [&](sld::bench::BenchIteration& it) {
  // Only the reporting repetition writes the trace and metrics files
  // (every repetition runs identical deterministic work).
  const auto trace_sink = it.open_jsonl_sink("--trace", trace_path);
  std::ofstream metrics_out;
  if (it.report() && !metrics_path.empty()) {
    metrics_out.open(metrics_path);
    if (!metrics_out) {
      std::cerr << "--metrics: cannot open " << metrics_path << "\n";
      std::exit(2);
    }
    metrics_out << "[";
  }
  std::size_t metrics_entries = 0;
  const double losses[] = {0.0, 0.05, 0.1, 0.2};

  sld::util::Table table(
      {"loss_model", "loss_rate", "arq", "detection_rate", "ci95",
       "false_positive_rate", "revocation_latency_ms", "probe_timeouts",
       "retransmissions", "radio_energy_uj"});

  for (const bool bursty : {false, true}) {
    for (const double loss : losses) {
      for (const bool arq_on : {false, true}) {
        sld::core::ExperimentConfig e;
        e.base = scaled_config(args);
        e.base.seed = args.seed;
        e.base.memstats = args.memstats;
        e.trials = args.trials;
        e.jobs = args.jobs;
        if (bursty) {
          if (loss > 0.0)
            e.base.faults.burst =
                sld::sim::GilbertElliottConfig::for_average_loss(loss,
                                                                 burst_len);
        } else {
          e.base.faults.loss_probability = loss;
        }
        // The alert transport (multi-hop to the base station) sees the
        // same per-attempt loss as the radio links.
        e.base.alert_loss_probability = loss;
        if (arq_on) {
          e.base.arq.enabled = true;
          e.base.arq.initial_timeout_ns = 250 * sld::sim::kMillisecond;
          e.base.arq.max_retries = 4;
        }
        e.base.trace_sink = trace_sink.get();
        e.keep_trial_summaries = true;
        const auto agg = sld::core::run_experiment(e);
        it.add_experiment(agg, e.trials);

        std::uint64_t probe_timeouts = 0, retx = 0;
        for (std::size_t ti = 0; ti < agg.trials.size(); ++ti) {
          const auto& t = agg.trials[ti];
          probe_timeouts += t.raw.probe_no_response;
          retx += t.raw.probe_retransmissions + t.raw.sensor_retransmissions +
                  t.raw.alert_retransmissions;
          if (metrics_out.is_open()) {
            if (metrics_entries++) metrics_out << ",";
            metrics_out << "\n{\"loss_model\":\""
                        << (bursty ? "bursty" : "iid")
                        << "\",\"loss_rate\":" << loss << ",\"arq\":\""
                        << (arq_on ? "on" : "off") << "\",\"trial\":" << ti
                        << ",\"seed\":" << (args.seed + ti)
                        << ",\"metrics\":" << t.metrics_json << "}";
          }
        }
        table.row()
            .cell(bursty ? "bursty" : "iid")
            .cell(loss)
            .cell(arq_on ? "on" : "off")
            .cell(agg.detection_rate.mean())
            .cell(agg.detection_rate.ci95_halfwidth())
            .cell(agg.false_positive_rate.mean())
            .cell(agg.revocation_latency_ms.mean())
            .cell(probe_timeouts)
            .cell(retx)
            .cell(agg.radio_energy_uj.mean());
      }
    }
  }
  table.print_csv(it.out(),
                  "Fault tolerance: detection/revocation vs channel loss "
                  "(iid + Gilbert-Elliott burst len 4), ARQ off vs on "
                  "(timeout 250 ms, 4 retries, exp. backoff)");

  if (chaos_sweep) {
    sld::util::Table chaos(
        {"scenario", "detection_rate", "ci95", "false_positive_rate",
         "revocation_latency_ms", "bs_restarts", "bs_failovers", "wal_lost",
         "station_unavailable", "partition_drops", "reporter_crash_drops"});
    for (const auto& [name, apply] : chaos_scenarios()) {
      sld::core::ExperimentConfig e;
      e.base = scaled_config(args);
      e.base.seed = args.seed;
      e.base.memstats = args.memstats;
      e.trials = args.trials;
      e.jobs = args.jobs;
      e.base.arq.enabled = true;
      e.base.arq.initial_timeout_ns = 250 * sld::sim::kMillisecond;
      e.base.arq.max_retries = 4;
      apply(e.base);
      e.base.trace_sink = trace_sink.get();
      e.keep_trial_summaries = true;
      const auto agg = sld::core::run_experiment(e);
      it.add_experiment(agg, e.trials);

      std::uint64_t restarts = 0, failovers = 0, wal_lost = 0,
                    unavailable = 0, partition_drops = 0, reporter_drops = 0;
      for (const auto& t : agg.trials) {
        restarts += t.cluster.restarts;
        failovers += t.cluster.failovers;
        wal_lost += t.durable.records_lost;
        unavailable += t.raw.alerts_station_unavailable;
        partition_drops += t.channel.partition_drops;
        reporter_drops += t.raw.alerts_dropped_reporter_crash;
      }
      chaos.row()
          .cell(name)
          .cell(agg.detection_rate.mean())
          .cell(agg.detection_rate.ci95_halfwidth())
          .cell(agg.false_positive_rate.mean())
          .cell(agg.revocation_latency_ms.mean())
          .cell(restarts)
          .cell(failovers)
          .cell(wal_lost)
          .cell(unavailable)
          .cell(partition_drops)
          .cell(reporter_drops);
    }
    chaos.print_csv(it.out(),
                    "Chaos sweep: detection/revocation under crash/reboot, "
                    "partition, clock drift, and base-station outage "
                    "families (ARQ on)");
  }
  if (metrics_out.is_open()) metrics_out << "\n]\n";
  });
}
