// Extension bench: alert-storm survival of the ingestion pipeline.
//
// Feeds a synthetic alert workload straight into an IngestPipeline +
// BaseStationCluster pair (no radio network: this isolates the ingestion
// path): honest reporters accuse every malicious target once, while a
// sweep of flooder counts sprays Zipf-skewed forged alerts at benign
// targets. Each flooder count runs with admission control off (sharded
// bounded queues only) and on (pair dedup + per-reporter token buckets +
// priority shedding), reporting accepted/shed/rate-limited fractions, the
// commit-latency p99, the revocation latency p99 (first accusation ->
// revoking commit), and the harm done: benign vs malicious revocations.
// The report quota is opened wide so the contrast isolates admission as
// the defense — with it off the hottest victim's counter grows with the
// flood; with it on every benign counter is capped at the flooder count,
// below tau2, at ANY flood intensity.
//
// `--storm` switches to a single-cell deep-dive instead of the sweep: one
// admission-on pipeline, honest traffic spread over a 15 s timeline, the
// whole flood compressed into a 3 s burst, with a 250 ms-cadence
// TimeseriesSampler watching the pipeline instruments and an SLO monitor
// (default rules below, override with --slo) judging the run window by
// window. The report is the per-window telemetry table plus the breach log
// and health verdict; --timeseries captures the same windows as a
// `timeseries/v1` stream for tools/ts_report.py.
#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "bench_runner.hpp"
#include "obs/memstats.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "revocation/failover.hpp"
#include "revocation/shard.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace sld;

struct StormKnobs {
  std::uint32_t shards = 4;
  double reporter_rate_per_s = 5.0;
  double zipf_exponent = 1.0;
  std::size_t flood_per_flooder = 200;
};

struct Submission {
  sim::SimTime t = 0;
  sim::NodeId reporter = 0;
  sim::NodeId target = 0;
  std::uint64_t nonce = 0;
};

constexpr sim::NodeId kMaliciousBase = 1;
constexpr sim::NodeId kBenignBase = 100;
constexpr sim::NodeId kHonestBase = 300;
constexpr sim::NodeId kFlooderBase = 500;
constexpr sim::SimTime kStormWindow = 10 * sim::kSecond;

/// One storm cell: returns the pipeline stats plus the derived outcome
/// columns, everything a pure function of (knobs, flooders, seed).
struct CellResult {
  revocation::IngestStats stats;
  std::size_t benign_revoked = 0;
  std::size_t malicious_revoked = 0;
  double commit_p99_ms = 0.0;
  double revocation_p99_ms = 0.0;
};

CellResult run_cell(const StormKnobs& knobs, std::size_t flooders,
                    bool admission_on, std::size_t honest,
                    std::size_t malicious, std::size_t benign,
                    std::uint64_t seed, obs::TraceSink* sink) {
  revocation::RevocationConfig rc;
  // tau2 sits above the flooder-count sweep's maximum so the pair-dedup
  // cap (counter <= #flooders) makes zero benign harm achievable; the
  // quota is opened wide so it is admission, not tau1, doing the work.
  rc.alert_threshold = 24;
  rc.report_quota = 100'000;

  revocation::BaseStationCluster cluster(rc, revocation::FailoverConfig{});

  revocation::IngestConfig ic;
  ic.shard.count = knobs.shards;
  ic.shard.queue_capacity = 16;
  ic.shard.service_time_ns = 10 * sim::kMillisecond;
  ic.admission.enabled = admission_on;
  ic.admission.reporter_rate_per_s = knobs.reporter_rate_per_s;
  ic.admission.reporter_burst = 8.0;
  revocation::IngestPipeline pipeline(ic, cluster);

  // Each cell is its own trace "trial": events are stamped with the
  // submission clock, and the trial.start record resets the validator's
  // monotone-time cursor between cells.
  sim::SimTime sim_now = 0;
  obs::Tracer tracer(sink,
                     [&sim_now] { return static_cast<std::int64_t>(sim_now); });
  cluster.set_tracer(tracer);
  pipeline.set_tracer(tracer);
  if (tracer.on()) {
    tracer.emit(
        tracer.event("trial.start")
            .f("seed", seed)
            .f("nodes", static_cast<std::uint64_t>(honest + flooders +
                                                   malicious + benign))
            .f("beacons", static_cast<std::uint64_t>(malicious + benign))
            .f("malicious", static_cast<std::uint64_t>(malicious))
            .f("sensors", static_cast<std::uint64_t>(0)));
  }

  // Workload: honest accusations spread over the window, flooders firing
  // Zipf-skewed forged alerts over the same window. One generation pass,
  // then a stable sort by time, keeps the interleave deterministic.
  util::Rng rng(seed);
  std::vector<Submission> subs;
  std::uint64_t nonce = 1;
  for (std::size_t h = 0; h < honest; ++h) {
    for (std::size_t m = 0; m < malicious; ++m) {
      Submission s;
      s.t = static_cast<sim::SimTime>(
          rng.uniform_u64(static_cast<std::uint64_t>(kStormWindow)));
      s.reporter = kHonestBase + static_cast<sim::NodeId>(h);
      s.target = kMaliciousBase + static_cast<sim::NodeId>(m);
      s.nonce = nonce++;
      subs.push_back(s);
    }
  }
  const util::ZipfSampler zipf(benign, knobs.zipf_exponent);
  for (std::size_t f = 0; f < flooders; ++f) {
    for (std::size_t k = 0; k < knobs.flood_per_flooder; ++k) {
      Submission s;
      s.t = static_cast<sim::SimTime>(
          rng.uniform_u64(static_cast<std::uint64_t>(kStormWindow)));
      s.reporter = kFlooderBase + static_cast<sim::NodeId>(f);
      s.target =
          kBenignBase + static_cast<sim::NodeId>(zipf.sample(rng.uniform01()));
      s.nonce = nonce++;
      subs.push_back(s);
    }
  }
  std::stable_sort(subs.begin(), subs.end(),
                   [](const Submission& a, const Submission& b) {
                     return a.t < b.t;
                   });

  std::vector<double> commit_ms;
  std::vector<double> revocation_ms;
  std::unordered_map<sim::NodeId, sim::SimTime> first_accusation;
  pipeline.set_commit_hook([&](sim::NodeId /*reporter*/, sim::NodeId target,
                               revocation::AlertDisposition disposition,
                               sim::SimTime enqueued_at,
                               sim::SimTime committed_at) {
    commit_ms.push_back(static_cast<double>(committed_at - enqueued_at) /
                        static_cast<double>(sim::kMillisecond));
    if (disposition == revocation::AlertDisposition::kAcceptedAndRevoked) {
      const auto it = first_accusation.find(target);
      const sim::SimTime since =
          it == first_accusation.end() ? enqueued_at : it->second;
      revocation_ms.push_back(static_cast<double>(committed_at - since) /
                              static_cast<double>(sim::kMillisecond));
    }
  });

  for (const Submission& s : subs) {
    sim_now = s.t;
    first_accusation.try_emplace(s.target, s.t);
    pipeline.submit(s.t, s.reporter, s.target, s.nonce);
  }
  sim_now = kStormWindow;
  pipeline.drain(kStormWindow);

  CellResult r;
  r.stats = pipeline.stats();
  const auto& bs = cluster.authority();
  for (std::size_t m = 0; m < malicious; ++m) {
    if (bs.is_revoked(kMaliciousBase + static_cast<sim::NodeId>(m)))
      ++r.malicious_revoked;
  }
  for (std::size_t b = 0; b < benign; ++b) {
    if (bs.is_revoked(kBenignBase + static_cast<sim::NodeId>(b)))
      ++r.benign_revoked;
  }
  if (!commit_ms.empty())
    r.commit_p99_ms = util::EmpiricalCdf(std::move(commit_ms)).quantile(0.99);
  if (!revocation_ms.empty())
    r.revocation_p99_ms =
        util::EmpiricalCdf(std::move(revocation_ms)).quantile(0.99);
  return r;
}

// --- storm mode -----------------------------------------------------------

constexpr sim::SimTime kStormEnd = 15 * sim::kSecond;
constexpr sim::SimTime kBurstStart = 4 * sim::kSecond;
constexpr sim::SimTime kBurstEnd = 7 * sim::kSecond;
constexpr std::int64_t kStormCadence = 250 * sim::kMillisecond;
/// Storm flooders cycle their forged accusations through this many victim
/// ids — every alert names a fresh (reporter, target) pair, so pair-dedup
/// cannot absorb the flood and the token buckets + queue bounds are the
/// defenses actually on trial. The pool is large enough that no victim's
/// counter approaches tau2 (3200 forged alerts / 997 victims ≈ 3 each).
constexpr std::size_t kStormVictimPool = 997;

// The flood rate-limit spike is the breach signal (the 3 s burst pushes
// rate(bs.ingest.rate_limited) three orders of magnitude above quiet-time
// levels); the breaker gauge tracks shedding pressure with a slow clear so
// the recovery edge lands after the queues visibly drain.
constexpr const char* kDefaultStormSlo =
    "flood    rate(bs.ingest.rate_limited) > 50 sustain=2 clear=2;"
    "pressure gauge(bs.ingest.breaker_state) >= 1 sustain=1 clear=4";

void run_storm(const StormKnobs& knobs, const bench::BenchArgs& args,
               const bench::StreamFlags& streams, bench::BenchIteration& it) {
  const std::size_t honest = 40;
  const std::size_t malicious = 6;
  const std::size_t benign = 30;
  const std::size_t flooders = 16;

  revocation::RevocationConfig rc;
  rc.alert_threshold = 24;
  rc.report_quota = 100'000;
  revocation::BaseStationCluster cluster(rc, revocation::FailoverConfig{});

  revocation::IngestConfig ic;
  ic.shard.count = knobs.shards;
  ic.shard.queue_capacity = 16;
  ic.shard.service_time_ns = 10 * sim::kMillisecond;
  ic.admission.enabled = true;
  // The burst must overwhelm BOTH defenses for the timeline to show them:
  // its instantaneous rate (~1000/s) blows through the token buckets, and
  // what the buckets admit still exceeds the shards' aggregate service
  // rate, so queues fill and the breaker enters shedding.
  ic.admission.reporter_rate_per_s = knobs.reporter_rate_per_s;
  ic.admission.reporter_burst = 16.0;
  revocation::IngestPipeline pipeline(ic, cluster);

  // Pipeline instruments live in a per-run registry, registered by the
  // same call as the full system's, so --slo specs port across both.
  obs::MetricsRegistry reg;
  pipeline.register_instruments(reg);
  reg.counter("bs.ingest.submitted",
              [&pipeline] { return pipeline.stats().submitted; });
  reg.counter("bs.ingest.committed",
              [&pipeline] { return pipeline.stats().committed; });

  // Only the reporting repeat writes the trace/telemetry files, as in
  // sweep mode.
  const auto trace_sink = it.open_jsonl_sink("--trace", streams.trace_path);
  const auto ts_sink =
      it.open_jsonl_sink("--timeseries", streams.timeseries_path);

  sim::SimTime sim_now = 0;
  obs::Tracer tracer(trace_sink.get(), [&sim_now] {
    return static_cast<std::int64_t>(sim_now);
  });
  cluster.set_tracer(tracer);
  pipeline.set_tracer(tracer);
  if (tracer.on()) {
    tracer.emit(
        tracer.event("trial.start")
            .f("seed", args.seed)
            .f("nodes", static_cast<std::uint64_t>(honest + flooders +
                                                   malicious + benign))
            .f("beacons", static_cast<std::uint64_t>(malicious + benign))
            .f("malicious", static_cast<std::uint64_t>(malicious))
            .f("sensors", static_cast<std::uint64_t>(0)));
  }

  obs::TimeseriesOptions topt;
  topt.enabled = true;
  topt.cadence_ns = kStormCadence;
  topt.ring_capacity = 64;  // >= the 60 windows of the 15 s timeline
  topt.sink = ts_sink.get();
  topt.sample_rss = streams.rss;
  // --rss: peak-RSS gauge refreshed per window, same pattern as the
  // in-system sampler (the stream gains host state; window timing and the
  // stdout table stay deterministic — mem.rss_kb never feeds the table).
  obs::Gauge* rss_gauge =
      topt.sample_rss ? &reg.gauge("mem.rss_kb") : nullptr;
  obs::TimeseriesSampler sampler(reg, topt);
  // The bench owns the timeline, so (unlike the in-system hook, which must
  // stay read-only) the presample hook may advance the pipeline to the
  // window edge: commits due before the edge land inside the window.
  sampler.set_presample_hook([&](std::int64_t t) {
    pipeline.advance(static_cast<sim::SimTime>(t));
    if (rss_gauge != nullptr)
      rss_gauge->set(static_cast<double>(obs::current_rss_kb()));
  });

  obs::SloMonitor slo(streams.parse_slo(kDefaultStormSlo));
  slo.add_tracer(tracer);
  if (ts_sink != nullptr && ts_sink.get() != trace_sink.get()) {
    slo.add_tracer(obs::Tracer(ts_sink.get(), [&sim_now] {
      return static_cast<std::int64_t>(sim_now);
    }));
  }
  sampler.set_window_observer(
      [&slo](const obs::WindowSample& w) { slo.on_window(w); });

  // Workload: honest accusations over the whole timeline, the entire
  // flood compressed into [kBurstStart, kBurstEnd).
  util::Rng rng(args.seed);
  std::vector<Submission> subs;
  std::uint64_t nonce = 1;
  for (std::size_t h = 0; h < honest; ++h) {
    for (std::size_t m = 0; m < malicious; ++m) {
      Submission s;
      s.t = static_cast<sim::SimTime>(
          rng.uniform_u64(static_cast<std::uint64_t>(kStormEnd)));
      s.reporter = kHonestBase + static_cast<sim::NodeId>(h);
      s.target = kMaliciousBase + static_cast<sim::NodeId>(m);
      s.nonce = nonce++;
      subs.push_back(s);
    }
  }
  for (std::size_t f = 0; f < flooders; ++f) {
    for (std::size_t k = 0; k < knobs.flood_per_flooder; ++k) {
      Submission s;
      s.t = kBurstStart + static_cast<sim::SimTime>(rng.uniform_u64(
                              static_cast<std::uint64_t>(kBurstEnd -
                                                         kBurstStart)));
      s.reporter = kFlooderBase + static_cast<sim::NodeId>(f);
      s.target = kBenignBase +
                 static_cast<sim::NodeId>(
                     (f * knobs.flood_per_flooder + k) % kStormVictimPool);
      s.nonce = nonce++;
      subs.push_back(s);
    }
  }
  std::stable_sort(subs.begin(), subs.end(),
                   [](const Submission& a, const Submission& b) {
                     return a.t < b.t;
                   });

  sampler.begin(0, args.seed);
  for (const Submission& s : subs) {
    sim_now = s.t;
    // Close due windows BEFORE the submission: a window captures strictly
    // pre-edge state, same contract as the scheduler time probe.
    sampler.advance_to(static_cast<std::int64_t>(s.t));
    pipeline.submit(s.t, s.reporter, s.target, s.nonce);
  }
  sim_now = kStormEnd;
  sampler.advance_to(static_cast<std::int64_t>(kStormEnd));
  pipeline.drain(kStormEnd);
  sampler.finish(static_cast<std::int64_t>(kStormEnd));

  // Per-window telemetry table straight from the ring (deterministic: the
  // whole timeline is a pure function of knobs and seed).
  util::Table table({"window", "t_ms", "submitted", "accepted",
                     "rate_limited", "shed", "committed", "rl_per_s",
                     "queue_depth", "breaker"});
  for (const obs::WindowSample& w : sampler.ring()) {
    double depth = 0.0;
    for (std::uint32_t i = 0; i < ic.shard.count; ++i) {
      const double* d =
          w.gauge("bs.ingest.queue_depth.s" + std::to_string(i));
      if (d != nullptr) depth += *d;
    }
    const auto delta_of = [&w](const char* name) -> long long {
      const std::uint64_t* d = w.delta(name);
      return d == nullptr ? 0 : static_cast<long long>(*d);
    };
    const double* breaker = w.gauge("bs.ingest.breaker_state");
    table.row()
        .cell(static_cast<long long>(w.index))
        .cell(static_cast<long long>(w.t_end_ns / sim::kMillisecond))
        .cell(delta_of("bs.ingest.submitted"))
        .cell(delta_of("bs.ingest.accepted"))
        .cell(delta_of("bs.ingest.rate_limited"))
        .cell(delta_of("bs.ingest.shed"))
        .cell(delta_of("bs.ingest.committed"))
        .cell(w.rate_per_s("bs.ingest.rate_limited"))
        .cell(depth)
        .cell(breaker == nullptr ? 0.0 : *breaker);
  }
  table.print_csv(it.out(),
                  "Alert storm deep-dive: 250 ms telemetry windows over a "
                  "15 s timeline with the flood compressed into [4 s, 7 s)");

  // Zero-harm check rides along: the flood must not revoke any victim.
  std::size_t malicious_revoked = 0;
  std::size_t victims_revoked = 0;
  const auto& bs = cluster.authority();
  for (std::size_t m = 0; m < malicious; ++m) {
    if (bs.is_revoked(kMaliciousBase + static_cast<sim::NodeId>(m)))
      ++malicious_revoked;
  }
  for (std::size_t b = 0; b < kStormVictimPool; ++b) {
    if (bs.is_revoked(kBenignBase + static_cast<sim::NodeId>(b)))
      ++victims_revoked;
  }
  it.out() << "revoked malicious=" << malicious_revoked
           << " benign=" << victims_revoked << "\n";
  it.out() << "slo_verdict healthy=" << (slo.healthy() ? 1 : 0)
           << " rules=" << slo.rules().size()
           << " breaches=" << slo.breaches()
           << " recovers=" << slo.recovers()
           << " active=" << slo.active() << "\n";
  for (const obs::SloMonitor::LogEntry& e : slo.log()) {
    it.out() << "slo_" << (e.breach ? "breach" : "recover") << " rule="
             << e.rule << " window=" << e.window
             << " t_ms=" << e.t_ns / sim::kMillisecond << "\n";
  }

  it.add_events(pipeline.stats().submitted);
  it.add_trials(1);
}

}  // namespace

int main(int argc, char** argv) {
  StormKnobs knobs;
  bench::StreamFlags streams;
  bool storm = false;
  bool rate_set = false;
  const auto args = bench::BenchArgs::parse(
      argc, argv,
      [&](const std::string& a, const auto& next) {
        if (streams.consume(a, next)) return true;
        if (a == "--shards") {
          knobs.shards = static_cast<std::uint32_t>(
              bench::parse_positive_ll("--shards", next("--shards")));
          return true;
        }
        if (a == "--rate") {
          knobs.reporter_rate_per_s =
              bench::parse_positive_double("--rate", next("--rate"));
          rate_set = true;
          return true;
        }
        if (a == "--storm") {
          storm = true;
          return true;
        }
        if (a == "--zipf") {
          knobs.zipf_exponent =
              bench::parse_positive_double("--zipf", next("--zipf"));
          return true;
        }
        if (a == "--flood") {
          knobs.flood_per_flooder = static_cast<std::size_t>(
              bench::parse_positive_ll("--flood", next("--flood")));
          return true;
        }
        return false;
      },
      bench::StreamFlags::help() +
          "  --shards N     ingestion shards, > 0 (default 4)\n"
          "  --rate R       admission tokens per reporter-second, > 0 "
          "(default 5; 40 under --storm)\n"
          "  --zipf S       flood target-popularity exponent, > 0 "
          "(default 1)\n"
          "  --flood K      forged alerts per flooder, > 0 (default 200)\n"
          "  --storm        single-cell deep-dive: 250 ms telemetry windows + "
          "SLO verdict\n");

  // Storm mode defaults the token rate high enough that the burst
  // saturates the shards (queues fill, breaker trips) and not just the
  // buckets; an explicit --rate still wins.
  if (storm && !rate_set) knobs.reporter_rate_per_s = 40.0;

  if (storm) {
    return bench::run_main("ext_alert_storm_storm", args,
                           [&](bench::BenchIteration& it) {
                             run_storm(knobs, args, streams, it);
                           });
  }

  return bench::run_main("ext_alert_storm", args, [&](bench::BenchIteration&
                                                          it) {
    // Only the reporting repeat writes the trace file: the other repeats
    // would otherwise duplicate every event in it.
    const auto trace_sink = it.open_jsonl_sink("--trace", streams.trace_path);
    const std::size_t honest = args.fast ? 30 : 40;
    const std::size_t malicious = args.fast ? 4 : 6;
    const std::size_t benign = args.fast ? 20 : 30;
    const std::vector<std::size_t> flooder_sweep =
        args.fast ? std::vector<std::size_t>{0, 8, 24}
                  : std::vector<std::size_t>{0, 4, 8, 16, 24};

    util::Table table({"admission", "flooders", "submitted", "accepted",
                       "committed", "shed_frac", "rate_limited_frac",
                       "pair_dup_frac", "priority_admits", "commit_p99_ms",
                       "revocation_p99_ms", "benign_revoked",
                       "malicious_revoked"});
    for (const bool admission_on : {false, true}) {
      for (const std::size_t flooders : flooder_sweep) {
        const CellResult r =
            run_cell(knobs, flooders, admission_on, honest, malicious,
                     benign, args.seed, trace_sink.get());
        const auto& in = r.stats;
        const double denom =
            in.submitted == 0 ? 1.0 : static_cast<double>(in.submitted);
        table.row()
            .cell(admission_on ? "on" : "off")
            .cell(flooders)
            .cell(in.submitted)
            .cell(in.accepted)
            .cell(in.committed)
            .cell(static_cast<double>(in.shed) / denom)
            .cell(static_cast<double>(in.rate_limited) / denom)
            .cell(static_cast<double>(in.pair_duplicates) / denom)
            .cell(in.priority_admits)
            .cell(r.commit_p99_ms)
            .cell(r.revocation_p99_ms)
            .cell(r.benign_revoked)
            .cell(r.malicious_revoked);
        it.add_events(in.submitted);
        it.add_trials(1);
      }
    }
    table.print_csv(it.out(),
                    "Alert storm: ingestion pipeline under Zipf-skewed "
                    "collusion floods, admission control off vs on "
                    "(tau2 24, quota opened wide)");
  });
}
