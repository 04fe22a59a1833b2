// Extension bench: framing denial-of-service against the revocation scheme.
//
// The collusion bench floods; this bench frames. The deployed malicious
// beacons run the coverage-directed framing plan (attack/framing): they
// pick the benign beacons whose loss starves localization coverage the
// most, pace accusations under the per-reporter tau1 budget so every
// alert is accepted, and re-accuse in waves. The sweep raises the framing
// intensity (re-accusation waves) against both defenses: the paper's
// permanent scheme ("permanent": any accused benign beacon whose counter
// crosses tau2 is gone forever) and the evidence lifecycle + localization
// fallback ladder ("lifecycle": quarantine with decay, corroboration
// before permanence, coverage guard, centroid fallback). Columns report
// the harm: permanently revoked benign beacons, quarantine/exoneration
// churn, the sparsest cell's usable-beacon floor, and the localization
// error p99 — detection of the actual colluders must not regress.
//
// `--framing` switches to a single-cell deep-dive instead of the sweep:
// one lifecycle-enabled station cluster (no radio network) with a WAL and
// two scheduled primary outages, a clustered colluder clique framing the
// sparse-cell beacons with waves snapped to the outage recovery edges,
// and honest witnesses corroborating against one real colluder. A 500 ms
// TimeseriesSampler watches the lifecycle instruments and an SLO monitor
// (default rules below, override with --slo) judges the run: quarantine
// waves are expected breaches; the coverage-floor rule must never fire.
// --timeseries captures the same windows as a `timeseries/v1` stream for
// tools/ts_report.py.
#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "attack/framing.hpp"
#include "bench_common.hpp"
#include "bench_runner.hpp"
#include "core/experiment.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "revocation/failover.hpp"
#include "sim/deployment.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace sld;

struct FramingKnobs {
  std::uint32_t targets = 4;
  std::uint32_t waves = 2;  // deep-dive; the sweep sweeps this
};

core::SystemConfig scaled_config(const bench::BenchArgs& args) {
  core::SystemConfig c;
  if (args.fast) {
    // Same density as the paper at ~1/3 scale.
    c.deployment.total_nodes = 300;
    c.deployment.beacon_count = 30;
    c.deployment.malicious_beacon_count = 3;
    c.deployment.field = util::Rect::square(550.0);
    c.rtt_calibration_samples = 2000;
  }
  c.strategy = attack::MaliciousStrategyConfig::with_effectiveness(0.8);
  return c;
}

// --- framing deep-dive ----------------------------------------------------

constexpr sim::SimTime kTimelineEnd = 20 * sim::kSecond;
constexpr sim::SimTime kFramingWindow = 16 * sim::kSecond;
constexpr std::int64_t kCadence = 500 * sim::kMillisecond;

/// The quarantine rule breaching is the attack becoming visible in
/// telemetry (expected; it recovers between waves). The floor rule is the
/// defense's contract: the sparsest occupied cell never drops below one
/// usable beacon, so a healthy verdict means the coverage guard held.
constexpr const char* kDefaultFramingSlo =
    "frame rate(bs.quarantines) > 0 sustain=1 clear=2;"
    "floor gauge(coverage.min_usable) < 1 sustain=1 clear=1";

struct Submission {
  sim::SimTime t = 0;
  sim::NodeId reporter = 0;
  sim::NodeId target = 0;
};

void run_framing(const FramingKnobs& knobs, const bench::BenchArgs& args,
                 const bench::StreamFlags& streams,
                 bench::BenchIteration& it) {
  // Hand-placed roster over a 500x500 field with 250 ft lifecycle cells:
  // one dense cell, two medium cells, and a sparse two-beacon cell whose
  // members the framing plan ranks as the most coverage-critical targets.
  std::vector<std::pair<sim::NodeId, util::Vec2>> benign;
  sim::NodeId next_id = sim::kFirstBeaconId;
  const auto place = [&](double x, double y) {
    benign.emplace_back(next_id++, util::Vec2{x, y});
  };
  for (int i = 0; i < 8; ++i)  // dense cell (0,0)
    place(30.0 + 25.0 * i, 40.0 + 20.0 * (i % 3));
  for (int i = 0; i < 6; ++i)  // cell (1,0)
    place(280.0 + 30.0 * i, 60.0 + 30.0 * (i % 2));
  for (int i = 0; i < 4; ++i)  // cell (0,1)
    place(60.0 + 40.0 * i, 300.0 + 25.0 * i);
  place(330.0, 330.0);  // sparse cell (1,1): the framing plan's bullseye
  place(420.0, 410.0);
  // Honest witnesses ringing the colluder clique: inside plausible range
  // of the clique, mutually independent, one per surrounding cell.
  const std::size_t first_witness = benign.size();
  place(190.0, 210.0);
  place(300.0, 190.0);
  place(185.0, 300.0);

  // A clustered colluder clique: mutually closer than the lifecycle's
  // independence radius, so their accusations corroborate as ONE witness —
  // enough to quarantine, never enough to permanently revoke.
  std::vector<std::pair<sim::NodeId, util::Vec2>> colluders = {
      {next_id + 0, util::Vec2{240.0, 240.0}},
      {next_id + 1, util::Vec2{248.0, 246.0}},
      {next_id + 2, util::Vec2{243.0, 252.0}},
  };

  revocation::RevocationConfig rc;  // paper defaults: tau1 10, tau2 2
  rc.lifecycle.enabled = true;
  // A 2.5 s half-life scales the decay dynamics onto the 20 s timeline:
  // framed evidence quarantines on each wave, then decays past the clear
  // threshold before the trial ends, so the end-of-run settle exonerates.
  rc.lifecycle.half_life_ns = 2500 * sim::kMillisecond;

  revocation::FailoverConfig fc;
  fc.durable.enabled = true;
  fc.durable.fsync_every_records = 1;
  // Two primary outages; the framing waves snap to the recovery edges,
  // accusing the station while it is rebuilding lifecycle state from the
  // WAL — the hardest case for quarantine agreement across a restart.
  fc.primary_outages = {{5 * sim::kSecond, 6 * sim::kSecond},
                       {10 * sim::kSecond, 11 * sim::kSecond}};

  revocation::BaseStationCluster cluster(rc, fc);
  std::vector<std::pair<sim::NodeId, util::Vec2>> roster = benign;
  roster.insert(roster.end(), colluders.begin(), colluders.end());
  cluster.set_beacon_roster(roster);

  attack::FramingConfig fcfg;
  fcfg.enabled = true;
  fcfg.targets = knobs.targets;
  fcfg.waves = knobs.waves;
  fcfg.window_ns = kFramingWindow;
  fcfg.cell_ft = rc.lifecycle.cell_ft;
  std::vector<std::pair<sim::SimTime, sim::SimTime>> outages;
  for (const auto& o : fc.primary_outages) outages.emplace_back(o.start, o.end);
  util::Rng rng(args.seed);
  const attack::FramingPlan plan = attack::plan_framing(
      colluders, benign, fcfg, rc.report_quota, /*window_start=*/0, outages,
      rng);

  // Workload: the framing schedule, plus honest witnesses near the clique
  // corroborating against colluder 0 — geometrically independent and
  // plausibly in range, so the real attacker IS permanently revoked while
  // every framed benign beacon survives.
  std::vector<Submission> subs;
  for (const auto& a : plan.alerts)
    subs.push_back(Submission{a.at, a.reporter, a.target});
  std::vector<sim::NodeId> witnesses;
  for (std::size_t w = first_witness; w < benign.size(); ++w)
    witnesses.push_back(benign[w].first);
  for (std::size_t round = 0; round < 4; ++round) {
    for (std::size_t w = 0; w < witnesses.size(); ++w) {
      subs.push_back(Submission{
          2 * sim::kSecond +
              static_cast<sim::SimTime>(round * witnesses.size() + w) * 500 *
                  sim::kMillisecond,
          witnesses[w], colluders[0].first});
    }
  }
  std::stable_sort(subs.begin(), subs.end(),
                   [](const Submission& a, const Submission& b) {
                     return a.t < b.t;
                   });

  // Lifecycle instruments in a per-run registry, same names the full
  // system registers (core/secure_localization.cpp), so --slo specs port.
  // The base-station counts read through the live authority, which a WAL
  // restore replaces.
  obs::MetricsRegistry reg;
  obs::Counter& submitted_c = reg.counter("alerts.submitted");
  const auto stats = [&cluster]() -> const revocation::BaseStationStats& {
    return cluster.authority().stats();
  };
  reg.counter("bs.alerts_accepted",
              [stats] { return stats().alerts_accepted; });
  reg.counter("bs.quarantines", [stats] { return stats().quarantines; });
  reg.counter("bs.exonerations", [stats] { return stats().exonerations; });
  reg.counter("bs.escalations", [stats] { return stats().escalations; });
  reg.counter("bs.guard_refusals",
              [stats] { return stats().guard_refusals; });
  reg.counter("bs.revocations", [stats] { return stats().revocations; });
  obs::Gauge& min_usable_g = reg.gauge("coverage.min_usable");
  obs::Gauge& evidence_g = reg.gauge("bs.evidence.framed_max");
  reg.gauge("bs.cluster.in_service",
            [&cluster] { return cluster.in_service() ? 1.0 : 0.0; });

  const auto trace_sink = it.open_jsonl_sink("--trace", streams.trace_path);
  const auto ts_sink =
      it.open_jsonl_sink("--timeseries", streams.timeseries_path);

  sim::SimTime sim_now = 0;
  obs::Tracer tracer(trace_sink.get(), [&sim_now] {
    return static_cast<std::int64_t>(sim_now);
  });
  cluster.set_tracer(tracer);
  if (tracer.on()) {
    tracer.emit(tracer.event("trial.start")
                    .f("seed", args.seed)
                    .f("nodes", static_cast<std::uint64_t>(roster.size()))
                    .f("beacons", static_cast<std::uint64_t>(roster.size()))
                    .f("malicious",
                       static_cast<std::uint64_t>(colluders.size()))
                    .f("sensors", static_cast<std::uint64_t>(0)));
  }

  obs::TimeseriesOptions topt;
  topt.enabled = true;
  topt.cadence_ns = kCadence;
  topt.ring_capacity = 64;  // >= the 40 windows of the 20 s timeline
  topt.sink = ts_sink.get();
  topt.sample_rss = streams.rss;
  obs::Gauge* rss_gauge = topt.sample_rss ? &reg.gauge("mem.rss_kb") : nullptr;
  obs::TimeseriesSampler sampler(reg, topt);
  sampler.set_presample_hook([&](std::int64_t t) {
    const auto now = static_cast<sim::SimTime>(t);
    cluster.advance(now);
    const revocation::BaseStation& bs = cluster.authority();
    min_usable_g.set(static_cast<double>(bs.lifecycle().min_usable(now)));
    double max_evidence = 0.0;
    for (const sim::NodeId target : plan.targets)
      max_evidence = std::max(max_evidence, bs.evidence(target, now));
    evidence_g.set(max_evidence);
    if (rss_gauge != nullptr)
      rss_gauge->set(static_cast<double>(obs::current_rss_kb()));
  });

  obs::SloMonitor slo(streams.parse_slo(kDefaultFramingSlo));
  slo.add_tracer(tracer);
  if (ts_sink != nullptr && ts_sink.get() != trace_sink.get()) {
    slo.add_tracer(obs::Tracer(ts_sink.get(), [&sim_now] {
      return static_cast<std::int64_t>(sim_now);
    }));
  }
  sampler.set_window_observer(
      [&slo](const obs::WindowSample& w) { slo.on_window(w); });

  std::uint64_t nonce = 1;
  std::uint64_t lost_outage = 0;
  sampler.begin(0, args.seed);
  for (const Submission& s : subs) {
    sim_now = s.t;
    // Close due windows BEFORE the submission: a window captures strictly
    // pre-edge state, same contract as the scheduler time probe.
    sampler.advance_to(static_cast<std::int64_t>(s.t));
    submitted_c.inc();
    if (!cluster.available(s.t)) {
      ++lost_outage;  // accusations into a dead station are simply lost
      ++nonce;
      continue;
    }
    cluster.process_alert(s.t, s.reporter, s.target, nonce++);
  }
  sim_now = kTimelineEnd;
  sampler.advance_to(static_cast<std::int64_t>(kTimelineEnd));
  cluster.advance(kTimelineEnd);
  cluster.settle(kTimelineEnd);
  sampler.finish(static_cast<std::int64_t>(kTimelineEnd));

  // Per-window telemetry table straight from the ring (deterministic: the
  // whole timeline is a pure function of knobs and seed).
  util::Table table({"window", "t_ms", "submitted", "accepted", "quarantines",
                     "exonerations", "guard_refusals", "revocations",
                     "min_usable", "evidence_max", "in_service"});
  for (const obs::WindowSample& w : sampler.ring()) {
    const auto delta_of = [&w](const char* name) -> long long {
      const std::uint64_t* d = w.delta(name);
      return d == nullptr ? 0 : static_cast<long long>(*d);
    };
    const auto gauge_of = [&w](const char* name) -> double {
      const double* g = w.gauge(name);
      return g == nullptr ? 0.0 : *g;
    };
    table.row()
        .cell(static_cast<long long>(w.index))
        .cell(static_cast<long long>(w.t_end_ns / sim::kMillisecond))
        .cell(delta_of("alerts.submitted"))
        .cell(delta_of("bs.alerts_accepted"))
        .cell(delta_of("bs.quarantines"))
        .cell(delta_of("bs.exonerations"))
        .cell(delta_of("bs.guard_refusals"))
        .cell(delta_of("bs.revocations"))
        .cell(gauge_of("coverage.min_usable"))
        .cell(gauge_of("bs.evidence.framed_max"))
        .cell(gauge_of("bs.cluster.in_service"));
  }
  table.print_csv(it.out(),
                  "Framing deep-dive: 500 ms lifecycle telemetry windows "
                  "over a 20 s timeline, waves snapped to WAL-recovery "
                  "edges of two primary outages");

  // Zero-harm check rides along: no framed benign beacon may be
  // PERMANENTLY revoked, while the corroborated colluder must be.
  const revocation::BaseStation& bs = cluster.authority();
  std::size_t benign_revoked = 0;
  std::size_t benign_quarantined = 0;
  for (const auto& [id, pos] : benign) {
    if (bs.is_revoked(id)) ++benign_revoked;
    if (bs.is_quarantined(id, kTimelineEnd)) ++benign_quarantined;
  }
  std::size_t colluders_revoked = 0;
  for (const auto& [id, pos] : colluders)
    if (bs.is_revoked(id)) ++colluders_revoked;
  it.out() << "framing targets=" << plan.targets.size()
           << " alerts=" << plan.alerts.size()
           << " lost_outage=" << lost_outage << "\n";
  it.out() << "benign permanently_revoked=" << benign_revoked
           << " quarantined_at_end=" << benign_quarantined
           << " exonerations=" << bs.stats().exonerations
           << " guard_refusals=" << bs.stats().guard_refusals << "\n";
  it.out() << "colluders revoked=" << colluders_revoked
           << " coverage_floor_violations="
           << bs.stats().coverage_floor_violations << "\n";
  it.out() << "slo_verdict healthy=" << (slo.healthy() ? 1 : 0)
           << " rules=" << slo.rules().size()
           << " breaches=" << slo.breaches()
           << " recovers=" << slo.recovers() << " active=" << slo.active()
           << "\n";
  for (const obs::SloMonitor::LogEntry& e : slo.log()) {
    it.out() << "slo_" << (e.breach ? "breach" : "recover")
             << " rule=" << e.rule << " window=" << e.window
             << " t_ms=" << e.t_ns / sim::kMillisecond << "\n";
  }

  it.add_events(subs.size());
  it.add_trials(1);
}

}  // namespace

int main(int argc, char** argv) {
  FramingKnobs knobs;
  bench::StreamFlags streams;
  bool framing = false;
  const auto args = bench::BenchArgs::parse(
      argc, argv,
      [&](const std::string& a, const auto& next) {
        if (streams.consume(a, next)) return true;
        if (a == "--targets") {
          knobs.targets = static_cast<std::uint32_t>(
              bench::parse_positive_ll("--targets", next("--targets")));
          return true;
        }
        if (a == "--waves") {
          knobs.waves = static_cast<std::uint32_t>(
              bench::parse_positive_ll("--waves", next("--waves")));
          return true;
        }
        if (a == "--framing") {
          framing = true;
          return true;
        }
        return false;
      },
      bench::StreamFlags::help() +
          "  --targets N    benign beacons the colluders frame, > 0 "
          "(default 4)\n"
          "  --waves W      re-accusation waves in the deep-dive, > 0 "
          "(default 2; the sweep sweeps this)\n"
          "  --framing      single-cell deep-dive: 500 ms lifecycle telemetry "
          "windows + SLO verdict\n");

  if (framing) {
    return bench::run_main("ext_framing_dos_framing", args,
                           [&](bench::BenchIteration& it) {
                             run_framing(knobs, args, streams, it);
                           });
  }

  return bench::run_main("ext_framing_dos", args, [&](bench::BenchIteration&
                                                          it) {
    // Only the reporting repeat writes the trace file: the other repeats
    // would otherwise duplicate every event in it.
    const auto trace_sink = it.open_jsonl_sink("--trace", streams.trace_path);
    const std::vector<std::uint32_t> wave_sweep =
        args.fast ? std::vector<std::uint32_t>{0, 2, 4}
                  : std::vector<std::uint32_t>{0, 1, 2, 4, 6};

    util::Table table({"scheme", "waves", "framing_alerts", "detection_rate",
                       "false_positive_rate", "benign_revoked",
                       "benign_quarantined", "exonerations",
                       "min_cell_usable", "p99_err_ft", "centroid_frac"});
    for (const bool lifecycle_on : {false, true}) {
      for (const std::uint32_t waves : wave_sweep) {
        core::ExperimentConfig e;
        e.base = scaled_config(args);
        e.base.seed = args.seed;
        e.base.memstats = args.memstats;
        e.trials = args.trials;
        e.jobs = args.jobs;
        e.base.framing.enabled = waves > 0;
        e.base.framing.waves = waves;
        e.base.framing.targets = knobs.targets;
        if (lifecycle_on) {
          // The defended configuration: evidence lifecycle at the station
          // plus the localization fallback ladder at the sensors.
          e.base.revocation.lifecycle.enabled = true;
          e.base.fallback.enabled = true;
        }
        e.base.trace_sink = trace_sink.get();
        e.keep_trial_summaries = true;
        const auto agg = core::run_experiment(e);
        it.add_experiment(agg, e.trials);

        double framing_alerts = 0.0, benign_revoked = 0.0;
        double benign_quarantined = 0.0, exonerations = 0.0;
        double p99 = 0.0, centroid_frac = 0.0;
        std::uint32_t min_usable = 0;
        bool first = true;
        for (const auto& t : agg.trials) {
          framing_alerts += static_cast<double>(t.raw.framing_alerts_submitted);
          benign_revoked += static_cast<double>(t.benign_revoked);
          benign_quarantined += static_cast<double>(t.benign_quarantined);
          exonerations += static_cast<double>(t.base_station.exonerations);
          p99 += t.p99_localization_error_ft;
          if (t.sensors_localized > 0)
            centroid_frac += static_cast<double>(t.raw.sensors_tier_centroid) /
                             static_cast<double>(t.sensors_localized);
          if (first || t.min_cell_usable < min_usable)
            min_usable = t.min_cell_usable;
          first = false;
        }
        const double n = agg.trials.empty()
                             ? 1.0
                             : static_cast<double>(agg.trials.size());
        table.row()
            .cell(lifecycle_on ? "lifecycle" : "permanent")
            .cell(static_cast<long long>(waves))
            .cell(framing_alerts / n)
            .cell(agg.detection_rate.mean())
            .cell(agg.false_positive_rate.mean())
            .cell(benign_revoked / n)
            .cell(benign_quarantined / n)
            .cell(exonerations / n)
            .cell(static_cast<long long>(min_usable))
            .cell(p99 / n)
            .cell(centroid_frac / n);
      }
    }
    table.print_csv(it.out(),
                    "Framing DoS: coverage-directed framing waves vs the "
                    "permanent scheme and the evidence lifecycle + fallback "
                    "ladder (paper tau1/tau2 defaults)");
  });
}
