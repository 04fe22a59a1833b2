// Chaos campaign: seeded randomized fault schedules against full trials.
//
// Each schedule is a pure function of one 64-bit seed: it draws node
// crash/reboot windows, network partitions, clock drift, packet loss /
// duplication / corruption, and base-station outages (always WAL-backed,
// sometimes with a standby), then runs one complete trial and checks the
// convergence oracles that must hold under ANY such schedule:
//
//   1. no benign beacon is ever revoked;
//   2. every sensor is accounted for (localized + unlocalized == sensors);
//   3. channel packet conservation across every fault outcome;
//   4. counter identity: for every alert target,
//        alert_counter(t) + wal.lost_alerts(t) == accepted_distinct(t),
//      and revocation fires exactly when the counter exceeds tau2 — i.e.
//      accepted evidence beyond the threshold (minus the bounded fsync
//      loss window) ALWAYS converges to revocation;
//   5. WAL loss is bounded by the fsync window per primary crash;
//   6. zero SLD_INVARIANT violations (meaningful when the binary is built
//      with -DSLD_INVARIANTS=ON; tools/run_chaos.sh does exactly that).
//
// A failing schedule prints a one-line repro:
//   SLD_CHAOS_SEED=<seed> ./chaos_campaign
// and, when --trace-dir is given, deterministically re-runs that schedule
// with a JSONL trace sink so CI can archive the full event forensics.
//
// Not a gtest: the campaign is a standalone binary so tools/run_chaos.sh
// and the ctest chaos_smoke entry can scale schedule counts independently.
//
// `--jobs N` fans the schedules out with run_indexed (core/executor.hpp;
// each schedule is an independent pure function of its seed, and no more
// workers start than there are schedules); results are buffered per seed
// and reported in seed order, so the report — and the exit code — is
// identical to a serial campaign (`--selftest-jobs N` asserts exactly
// that). Invariant recording is thread-local, so concurrent schedules
// attribute violations to the schedule that raised them. Failure-trace
// re-runs and SLD_CHAOS_SEED replays always run serially.
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/invariant.hpp"
#include "core/executor.hpp"
#include "core/secure_localization.hpp"
#include "obs/trace.hpp"
#include "sim/deployment.hpp"
#include "util/rng.hpp"

namespace {

using namespace sld;

// ---------------------------------------------------------------------------
// Invariant recording. The handler and message buffer are thread-local:
// with --jobs, schedules run concurrently on worker threads, and each trial
// must capture exactly the violations its own thread raised
// (check::set_thread_invariant_handler overrides the process handler for
// the installing thread only).

thread_local std::vector<std::string> t_invariant_messages;

void recording_handler(const check::InvariantViolation& v) {
  if (t_invariant_messages.size() < 8) {
    std::ostringstream os;
    os << v.file << ":" << v.line << ": " << v.condition << " — "
       << v.message;
    t_invariant_messages.push_back(os.str());
  }
}

// ---------------------------------------------------------------------------
// Schedule generation: SystemConfig as a pure function of (seed, fast).

struct CampaignOptions {
  std::size_t schedules = 50;
  std::uint64_t base_seed = 1;
  bool fast = false;
  bool storm_only = false;
  bool framing_only = false;
  std::string trace_dir;
  /// Concurrent schedules: 1 = the classic serial campaign, 0 = hardware
  /// threads. Reporting is seed-ordered either way.
  std::size_t jobs = 1;
  /// When nonzero: run N schedules at --jobs 1 and again at --jobs 4 and
  /// demand identical per-seed verdicts and failure reports.
  std::size_t selftest_jobs = 0;
};

core::SystemConfig make_schedule(std::uint64_t seed, bool fast,
                                 bool storm_only, bool framing_only) {
  core::SystemConfig c;
  c.deployment.total_nodes = fast ? 200 : 300;
  c.deployment.beacon_count = fast ? 20 : 30;
  c.deployment.malicious_beacon_count = fast ? 2 : 3;
  c.deployment.field = util::Rect::square(fast ? 460.0 : 550.0);
  c.rtt_calibration_samples = fast ? 1000 : 2000;
  c.strategy = attack::MaliciousStrategyConfig::with_effectiveness(1.0);
  c.paper_wormhole = false;
  c.seed = seed;

  // All schedule randomness comes from a dedicated stream so the system's
  // own seed-derived streams stay untouched.
  util::Rng rng = util::Rng(seed).fork(0xc4a05);
  const std::uint32_t beacons =
      static_cast<std::uint32_t>(c.deployment.beacon_count);
  const std::uint32_t sensors = static_cast<std::uint32_t>(
      c.deployment.total_nodes - c.deployment.beacon_count);
  auto random_node = [&]() -> sim::NodeId {
    if (rng.bernoulli(0.5)) {
      return sim::kFirstBeaconId +
             static_cast<sim::NodeId>(rng.uniform_u64(beacons));
    }
    return sim::kNonBeaconIdBase +
           static_cast<sim::NodeId>(rng.uniform_u64(sensors));
  };

  // Alerts must survive transient outages: retries are always on.
  c.arq.enabled = true;
  c.arq.initial_timeout_ns = 250 * sim::kMillisecond;
  c.arq.max_retries = static_cast<std::size_t>(rng.uniform_int(4, 8));
  c.arq.jitter_fraction = 0.1;

  // Channel-level chaos.
  static constexpr double kLossChoices[] = {0.0, 0.05, 0.10};
  c.faults.loss_probability =
      kLossChoices[rng.uniform_u64(std::size(kLossChoices))];
  if (rng.bernoulli(0.3)) c.faults.duplicate_probability = 0.05;
  if (rng.bernoulli(0.2)) c.faults.corruption_probability = 0.01;
  if (rng.bernoulli(0.5)) {
    c.faults.clock_drift.max_drift_ppm = rng.uniform(10.0, 100.0);
  }

  // Crash/reboot windows: up to 4 distinct victims, windows inside the
  // probing + early sensor phase so both phases see reboots.
  const auto crash_count = rng.uniform_u64(5);  // 0..4
  for (std::uint64_t i = 0; i < crash_count; ++i) {
    const sim::NodeId victim = random_node();
    bool duplicate = false;
    for (const auto& w : c.faults.crashes) duplicate |= (w.node == victim);
    if (duplicate) continue;  // one window per node keeps reboots ordered
    const auto start = static_cast<sim::SimTime>(
        rng.uniform(0.0, 60.0) * static_cast<double>(sim::kSecond));
    const auto duration = static_cast<sim::SimTime>(
        rng.uniform(0.5, 20.0) * static_cast<double>(sim::kSecond));
    c.faults.crashes.push_back(sim::CrashWindow{victim, start, start + duration});
  }

  // Network bipartitions: up to 2 cuts of up to a quarter of the field.
  const auto partition_count = rng.uniform_u64(3);  // 0..2
  for (std::uint64_t i = 0; i < partition_count; ++i) {
    sim::PartitionWindow w;
    const auto side = 1 + rng.uniform_u64(c.deployment.total_nodes / 4);
    for (std::uint64_t k = 0; k < side; ++k) w.side_a.push_back(random_node());
    w.start = static_cast<sim::SimTime>(
        rng.uniform(0.0, 60.0) * static_cast<double>(sim::kSecond));
    w.end = w.start + static_cast<sim::SimTime>(
        rng.uniform(0.5, 10.0) * static_cast<double>(sim::kSecond));
    c.faults.partitions.push_back(std::move(w));
  }

  // Base-station chaos. Outages ALWAYS pair with a WAL: an outage without
  // durable state restores an empty station, which legitimately breaks the
  // convergence oracle (that pairing is rejected as a config error by the
  // oracle below, not a detection bug).
  switch (rng.uniform_u64(3)) {
    case 0:  // immortal station (but durable bookkeeping half the time)
      c.failover.durable.enabled = rng.bernoulli(0.5);
      break;
    case 1: {  // crash/restart: 1-2 short outages against the alert burst
      c.failover.durable.enabled = true;
      static constexpr std::uint32_t kFsyncChoices[] = {1, 2, 4};
      c.failover.durable.fsync_every_records =
          kFsyncChoices[rng.uniform_u64(std::size(kFsyncChoices))];
      c.failover.durable.snapshot_every_records = 16;
      sim::SimTime cursor = static_cast<sim::SimTime>(
          rng.uniform(0.0, 2.0) * static_cast<double>(sim::kSecond));
      const auto outages = 1 + rng.uniform_u64(2);
      for (std::uint64_t i = 0; i < outages; ++i) {
        const auto duration = static_cast<sim::SimTime>(
            rng.uniform(0.5, 5.0) * static_cast<double>(sim::kSecond));
        c.failover.primary_outages.push_back({cursor, cursor + duration});
        cursor += duration + static_cast<sim::SimTime>(
            rng.uniform(2.0, 10.0) * static_cast<double>(sim::kSecond));
      }
      break;
    }
    default: {  // standby failover: primary may never come back
      c.failover.durable.enabled = true;
      c.failover.standby_enabled = true;
      const auto start = static_cast<sim::SimTime>(
          rng.uniform(0.0, 5.0) * static_cast<double>(sim::kSecond));
      const auto duration = rng.bernoulli(0.5)
          ? 3600 * sim::kSecond  // dead for the rest of the trial
          : static_cast<sim::SimTime>(
                rng.uniform(3.0, 30.0) * static_cast<double>(sim::kSecond));
      c.failover.primary_outages.push_back({start, start + duration});
      break;
    }
  }

  // Alert-storm family: colluders flood Zipf-skewed benign victims through
  // the admission-controlled ingestion pipeline, on top of whatever channel
  // and base-station chaos was drawn above. tau2 is raised to N_a + 1 so
  // that admission pair-dedup (at most ONE accepted accusation per
  // (reporter, target) pair) caps every benign counter at N_a — zero benign
  // revocations are then achievable at ANY flood intensity, which is
  // exactly what the bounded-harm oracle checks. Without admission the same
  // flood WOULD frame benign beacons (fresh nonces bypass the base
  // station's triple dedup), so the family always turns admission on.
  const bool storm_family = storm_only || (!framing_only && rng.bernoulli(0.35));
  if (storm_family) {
    c.collusion = true;
    c.revocation.alert_threshold = static_cast<std::uint32_t>(
        c.deployment.malicious_beacon_count + 1);
    c.storm.flood_alerts_per_colluder =
        static_cast<std::size_t>(rng.uniform_int(fast ? 30 : 60,
                                                 fast ? 120 : 300));
    static constexpr double kZipfChoices[] = {0.8, 1.0, 1.5};
    c.storm.zipf_exponent = kZipfChoices[rng.uniform_u64(std::size(kZipfChoices))];
    c.storm.duration_ns = static_cast<sim::SimTime>(
        rng.uniform(10.0, 40.0) * static_cast<double>(sim::kSecond));

    c.ingest.admission.enabled = true;
    c.ingest.admission.reporter_rate_per_s = rng.uniform(2.0, 20.0);
    c.ingest.admission.reporter_burst = rng.uniform(4.0, 16.0);
    static constexpr std::uint32_t kShardChoices[] = {1, 2, 4};
    c.ingest.shard.count =
        kShardChoices[rng.uniform_u64(std::size(kShardChoices))];
    static constexpr std::size_t kCapacityChoices[] = {8, 16, 64};
    c.ingest.shard.queue_capacity =
        kCapacityChoices[rng.uniform_u64(std::size(kCapacityChoices))];
    c.ingest.shard.service_time_ns = static_cast<sim::SimTime>(
        rng.uniform_int(1, 5)) * sim::kMillisecond;

    // WAL commit stalls (only meaningful with a WAL): long enough windows
    // trip the circuit breaker into degraded counting mid-storm.
    if (c.failover.durable.enabled && rng.bernoulli(0.5)) {
      sim::SimTime cursor = static_cast<sim::SimTime>(
          rng.uniform(1.0, 10.0) * static_cast<double>(sim::kSecond));
      const auto stalls = 1 + rng.uniform_u64(2);
      for (std::uint64_t i = 0; i < stalls; ++i) {
        const auto duration = static_cast<sim::SimTime>(
            rng.uniform(0.5, 4.0) * static_cast<double>(sim::kSecond));
        c.failover.durable.stall_windows.push_back(
            {cursor, cursor + duration});
        cursor += duration + static_cast<sim::SimTime>(
            rng.uniform(2.0, 8.0) * static_cast<double>(sim::kSecond));
      }
      c.ingest.admission.breaker_trip_ns = 200 * sim::kMillisecond;
    }
  }

  // Framing family (mutually exclusive with the storm family, so the
  // evidence lifecycle — not admission pair-dedup — is the subsystem on
  // trial): the colluders run the coverage-directed framing plan against
  // the sparsest cells' benign beacons, paced under tau1 so every alert is
  // accepted, in waves that top decayed evidence back up — on top of
  // whatever channel and base-station chaos was drawn above (framing x
  // crash x partition x WAL restore). Same Byzantine-provisioning spirit
  // as the storm family's tau2 bump: the defender's corroboration quorum
  // and escalation bar sit above the worst colluding clique (N_a distinct
  // reporters) plus the bounded honest false-positive dribble (a benign
  // counter historically never exceeds tau2), so framing can sequester but
  // structurally can NEVER permanently revoke a benign beacon or override
  // the coverage floor — exactly what oracles 1 and 8 assert.
  if (framing_only || (!storm_family && rng.bernoulli(0.25))) {
    c.revocation.lifecycle.enabled = true;
    c.fallback.enabled = true;
    c.framing.enabled = true;
    c.framing.targets =
        static_cast<std::uint32_t>(rng.uniform_int(2, fast ? 4 : 5));
    c.framing.waves = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
    c.framing.window_ns = static_cast<sim::SimTime>(
        rng.uniform(10.0, 40.0) * static_cast<double>(sim::kSecond));
    c.framing.cell_ft = c.revocation.lifecycle.cell_ft;
    const auto n_a =
        static_cast<std::uint32_t>(c.deployment.malicious_beacon_count);
    c.revocation.lifecycle.corroboration_k = n_a + 3;
    c.revocation.lifecycle.escalation_threshold =
        static_cast<double>(n_a * c.framing.waves +
                            c.revocation.alert_threshold) + 2.0;
  }

  // Telemetry rides along on every schedule purely as a forensic recorder:
  // the sampler draws no randomness and schedules no events, so the chaos
  // schedules (and trial outcomes) are unchanged from the pre-telemetry
  // campaign. The bounded ring holds the last few seconds of windows — the
  // failure context below dumps them when an oracle trips.
  c.telemetry.enabled = true;
  c.telemetry.cadence_ns = 500 * sim::kMillisecond;
  c.telemetry.ring_capacity = 12;
  return c;
}

// ---------------------------------------------------------------------------
// Oracles.

struct ScheduleResult {
  std::vector<std::string> failures;
  bool ok() const { return failures.empty(); }
};

ScheduleResult run_schedule(std::uint64_t seed, const CampaignOptions& opts,
                            obs::TraceSink* sink) {
  ScheduleResult result;
  auto fail = [&result](const std::string& what) {
    result.failures.push_back(what);
  };

  core::SystemConfig config =
      make_schedule(seed, opts.fast, opts.storm_only, opts.framing_only);
  config.trace_sink = sink;

  t_invariant_messages.clear();
  const std::uint64_t violations_before =
      check::thread_invariant_failure_count();
  check::ScopedThreadInvariantHandler guard(&recording_handler);

  try {
    core::SecureLocalizationSystem sys(config);
    const auto s = sys.run();

    // Oracle 1: chaos never frames a benign beacon.
    if (s.benign_revoked != 0) {
      std::ostringstream os;
      os << "benign_revoked == " << s.benign_revoked << " (want 0)";
      fail(os.str());
    }

    // Oracle 2: every sensor is accounted for.
    if (s.sensors_localized + s.sensors_unlocalized != s.sensors) {
      std::ostringstream os;
      os << "sensor accounting: localized " << s.sensors_localized
         << " + unlocalized " << s.sensors_unlocalized << " != "
         << s.sensors;
      fail(os.str());
    }

    // Oracle 3: packet conservation across every fault outcome.
    const auto& ch = s.channel;
    const std::uint64_t accounted = ch.deliveries + ch.losses +
                                    ch.dropped_by_fault + ch.crashed_rx_drops +
                                    ch.partition_drops;
    if (accounted != ch.delivery_attempts + ch.duplicates) {
      std::ostringstream os;
      os << "channel conservation: " << accounted
         << " accounted != " << ch.delivery_attempts << " attempts + "
         << ch.duplicates << " duplicates";
      fail(os.str());
    }

    // Oracle 4: counter identity + revocation threshold, per target.
    const auto& cluster = sys.context().cluster;
    const auto& bs = sys.context().bs();
    const auto tau2 = config.revocation.alert_threshold;
    for (const auto& [target, accepted] : cluster.accepted_by_target()) {
      const std::uint32_t counter = bs.alert_counter(target);
      const std::uint32_t lost = cluster.wal().lost_alerts(target);
      if (counter + lost != accepted) {
        std::ostringstream os;
        os << "counter identity for target " << target << ": counter "
           << counter << " + wal-lost " << lost << " != accepted "
           << accepted;
        fail(os.str());
      }
      // With the lifecycle enabled, revocation is driven by decayed
      // evidence + corroboration, not the raw counter — the iff only holds
      // for the paper's permanent scheme.
      if (!config.revocation.lifecycle.enabled &&
          bs.is_revoked(target) != (counter > tau2)) {
        std::ostringstream os;
        os << "revocation threshold for target " << target << ": counter "
           << counter << " vs tau2 " << tau2 << " but is_revoked == "
           << bs.is_revoked(target);
        fail(os.str());
      }
    }

    // Oracle 5: WAL loss bounded by the fsync window per primary crash,
    // plus any appends that arrived while a commit stall held the log —
    // stalled records are pending (not yet durable) whatever the fsync
    // cadence says, so a crash can take all of them.
    const auto fsync = config.failover.durable.fsync_every_records;
    const std::uint64_t crash_bound =
        config.failover.primary_outages.size() *
            (fsync > 0 ? fsync - 1 : 0) +
        s.durable.stalled_appends;
    if (s.durable.records_lost > crash_bound) {
      std::ostringstream os;
      os << "WAL lost " << s.durable.records_lost
         << " records, bound is (fsync-1) * outages + stalled == "
         << crash_bound;
      fail(os.str());
    }

    // Oracle 7 (storm): bounded harm under overload. The zero-benign-harm
    // side is oracle 1 (pair-dedup caps benign counters at N_a < tau2 + 1
    // at ANY flood intensity, so it must hold even here); the liveness
    // side — accepted evidence beyond tau2 always converges to revocation
    // — is oracle 4. What is new here: the pipeline may not strand or
    // invent alerts, and every malicious revocation must land within the
    // service-model latency bound.
    if (config.ingest.enabled()) {
      const auto& in = s.ingest;
      if (in.submitted != in.accepted + in.rate_limited + in.shed +
                              in.pair_duplicates) {
        std::ostringstream os;
        os << "ingest conservation: submitted " << in.submitted
           << " != accepted " << in.accepted << " + rate_limited "
           << in.rate_limited << " + shed " << in.shed << " + pair_dup "
           << in.pair_duplicates;
        fail(os.str());
      }
      if (in.accepted != in.committed) {
        std::ostringstream os;
        os << "ingest drain: accepted " << in.accepted << " != committed "
           << in.committed << " (queued alerts stranded at end of trial)";
        fail(os.str());
      }
      if (in.deferred != in.deferred_journaled + in.deferred_lost) {
        std::ostringstream os;
        os << "deferred accounting: deferred " << in.deferred
           << " != journaled " << in.deferred_journaled << " + lost "
           << in.deferred_lost;
        fail(os.str());
      }
      // Bounded revocation latency: a commit slot never lands later than
      // the last executed event plus the whole accepted backlog served
      // back-to-back (the service model adds service_time per entry).
      const sim::SimTime horizon =
          static_cast<sim::SimTime>(sys.network().scheduler().now()) +
          static_cast<sim::SimTime>(in.accepted) *
              config.ingest.shard.service_time_ns;
      for (const auto& [target, at] : s.raw.revocation_times) {
        const auto truth_it = sys.context().truth.find(target);
        if (truth_it == sys.context().truth.end() ||
            !truth_it->second.malicious)
          continue;
        if (at > horizon) {
          std::ostringstream os;
          os << "revocation latency for malicious target " << target << ": "
             << at << " past service-model horizon " << horizon;
          fail(os.str());
        }
      }
    }

    // Oracle 8 (framing): the lifecycle sequesters, never frames. The
    // zero-permanent-harm side is oracle 1 (benign_revoked counts
    // PERMANENT revocations only — a quarantined beacon that exonerates
    // was never falsely revoked), and it must hold under framing at ANY
    // intensity because the corroboration quorum is provisioned above the
    // colluding clique. What is new here: the coverage guard never admits
    // a quarantine below the usable floor without escalated evidence
    // (impossible by construction — a violation is a lifecycle bug, not an
    // unlucky schedule), and the escalation bar provisioned by
    // make_schedule is genuinely out of the colluders' reach.
    if (config.revocation.lifecycle.enabled) {
      if (s.base_station.coverage_floor_violations != 0) {
        std::ostringstream os;
        os << "coverage guard admitted " << s.base_station.coverage_floor_violations
           << " quarantine(s) below the usable floor without escalation";
        fail(os.str());
      }
      if (config.framing.enabled && s.base_station.escalations != 0) {
        std::ostringstream os;
        os << "framing reached the escalation bar (" << s.base_station.escalations
           << " escalation(s)); the provisioned threshold is too low";
        fail(os.str());
      }
    }

    // Forensic context for any failure above: the durability/storm knobs
    // this seed drew plus the end-of-trial WAL and ingest counters, so a
    // repro line alone is enough to reason about the fault interleaving.
    if (!result.ok()) {
      std::ostringstream os;
      const auto& d = config.failover.durable;
      os << "context: fsync=" << d.fsync_every_records
         << " snapshot_every=" << d.snapshot_every_records
         << " standby=" << config.failover.standby_enabled << " outages=[";
      for (const auto& o : config.failover.primary_outages)
        os << "(" << o.start << "," << o.end << ")";
      os << "] stalls=[";
      for (const auto& w : d.stall_windows)
        os << "(" << w.start << "," << w.end << ")";
      os << "] wal{appends=" << s.durable.appends
         << " flushes=" << s.durable.flushes
         << " snapshots=" << s.durable.snapshots
         << " records_lost=" << s.durable.records_lost
         << " stalled=" << s.durable.stalled_appends
         << " deferred_lost=" << s.durable.deferred_lost << "}"
         << " ingest{accepted=" << s.ingest.accepted
         << " deferred=" << s.ingest.deferred
         << " journaled=" << s.ingest.deferred_journaled
         << " deferred_lost=" << s.ingest.deferred_lost
         << " reconciled=" << s.ingest.reconciled << "}";
      if (config.framing.enabled) {
        os << " framing{targets=" << config.framing.targets
           << " waves=" << config.framing.waves << " k="
           << config.revocation.lifecycle.corroboration_k << " esc="
           << config.revocation.lifecycle.escalation_threshold
           << "} lifecycle{quarantines=" << s.base_station.quarantines
           << " exonerations=" << s.base_station.exonerations
           << " guard_refusals=" << s.base_station.guard_refusals
           << " benign_quarantined=" << s.benign_quarantined
           << " min_cell_usable=" << s.min_cell_usable << "}";
      }
      fail(os.str());
      // Run-timeline forensics: the last telemetry windows before the end
      // of the trial — what the pipeline was doing when the oracle tripped.
      if (sys.context().timeseries != nullptr) {
        fail("telemetry tail:\n" + sys.context().timeseries->render_tail(8));
      }
    }
  } catch (const std::exception& e) {
    fail(std::string("trial threw: ") + e.what());
  }

  // Oracle 6: no invariant fired anywhere in the trial (counted on this
  // thread — the trial runs start to finish on the calling thread).
  const std::uint64_t delta =
      check::thread_invariant_failure_count() - violations_before;
  if (delta != 0) {
    std::ostringstream os;
    os << delta << " SLD_INVARIANT violation(s)";
    fail(os.str());
    for (const auto& msg : t_invariant_messages) fail("  " + msg);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Driver.

int usage(const char* argv0, int code) {
  std::cerr
      << "usage: " << argv0
      << " [--schedules N] [--base-seed S] [--fast] [--storm] [--framing]"
         " [--trace-dir DIR] [--jobs N] [--selftest-jobs N]\n"
         "Runs N seeded chaos schedules (seeds S, S+1, ...). --storm forces\n"
         "the alert-storm family on every schedule; --framing forces the\n"
         "lifecycle framing family. --jobs runs schedules\n"
         "concurrently (0 = hardware threads) with seed-ordered reporting;\n"
         "--selftest-jobs N instead runs N schedules at jobs 1 and jobs 4\n"
         "and fails on any verdict difference. Every failure\n"
         "prints a one-line repro; SLD_CHAOS_SEED=<seed> in the environment\n"
         "replays exactly that schedule serially (with a JSONL trace when\n"
         "--trace-dir is set). Exits nonzero if any schedule fails.\n";
  return code;
}

std::optional<std::uint64_t> parse_u64(const std::string& s) {
  try {
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(s, &pos, 0);
    if (pos != s.size()) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// Prints a failed schedule's report and repro line, then re-runs it
/// serially with a JSONL sink if a trace dir was requested. Returns
/// r.ok().
bool report(std::uint64_t seed, const CampaignOptions& opts,
            const ScheduleResult& r) {
  if (r.ok()) return true;
  std::cerr << "FAIL schedule seed=" << seed << ":\n";
  for (const auto& f : r.failures) std::cerr << "  - " << f << "\n";
  std::cerr << "  repro: SLD_CHAOS_SEED=" << seed << " ./chaos_campaign"
            << (opts.fast ? " --fast" : "")
            << (opts.storm_only ? " --storm" : "")
            << (opts.framing_only ? " --framing" : "") << "\n";
  if (!opts.trace_dir.empty()) {
    const std::string path =
        opts.trace_dir + "/chaos_" + std::to_string(seed) + ".jsonl";
    try {
      obs::JsonlSink sink(path);
      (void)run_schedule(seed, opts, &sink);  // deterministic re-run
      std::cerr << "  trace: " << path << "\n";
    } catch (const std::exception& e) {
      std::cerr << "  trace capture failed: " << e.what() << "\n";
    }
  }
  return false;
}

bool run_and_report(std::uint64_t seed, const CampaignOptions& opts) {
  return report(seed, opts, run_schedule(seed, opts, nullptr));
}

/// Runs the whole campaign at the given concurrency and returns the
/// per-seed results (index i is seed base_seed + i). Schedules execute in
/// whatever order the workers claim them; the slot-per-seed result vector
/// makes everything reported from it independent of that order.
std::vector<ScheduleResult> run_campaign(const CampaignOptions& opts,
                                         std::size_t jobs) {
  return core::run_indexed(opts.schedules, jobs, [&opts](std::size_t i) {
    return run_schedule(opts.base_seed + i, opts, nullptr);
  });
}

/// --selftest-jobs: the campaign's own serial-vs-parallel equivalence
/// check — identical per-seed verdicts AND identical failure reports at
/// --jobs 1 and --jobs 4.
int run_jobs_selftest(CampaignOptions opts) {
  opts.schedules = opts.selftest_jobs;
  const auto serial = run_campaign(opts, 1);
  const auto parallel = run_campaign(opts, 4);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < opts.schedules; ++i) {
    if (serial[i].failures == parallel[i].failures) continue;
    ++mismatches;
    std::cerr << "MISMATCH seed=" << opts.base_seed + i << ": jobs=1 -> "
              << serial[i].failures.size() << " failure(s), jobs=4 -> "
              << parallel[i].failures.size() << " failure(s)\n";
    for (const auto& f : serial[i].failures)
      std::cerr << "  jobs=1: " << f << "\n";
    for (const auto& f : parallel[i].failures)
      std::cerr << "  jobs=4: " << f << "\n";
  }
  std::cout << "chaos jobs selftest: " << opts.schedules
            << " schedules, verdicts "
            << (mismatches == 0 ? "identical" : "DIFFER") << " at --jobs 1 "
            << "vs --jobs 4 (" << mismatches << " mismatch(es))\n";
  return mismatches == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CampaignOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::optional<std::uint64_t> {
      if (i + 1 >= argc) return std::nullopt;
      return parse_u64(argv[++i]);
    };
    if (arg == "--schedules") {
      const auto v = value();
      if (!v) return usage(argv[0], 2);
      opts.schedules = static_cast<std::size_t>(*v);
    } else if (arg == "--base-seed") {
      const auto v = value();
      if (!v) return usage(argv[0], 2);
      opts.base_seed = *v;
    } else if (arg == "--jobs") {
      const auto v = value();
      if (!v) return usage(argv[0], 2);
      opts.jobs = static_cast<std::size_t>(*v);
    } else if (arg == "--selftest-jobs") {
      const auto v = value();
      if (!v || *v == 0) return usage(argv[0], 2);
      opts.selftest_jobs = static_cast<std::size_t>(*v);
    } else if (arg == "--fast") {
      opts.fast = true;
    } else if (arg == "--storm") {
      opts.storm_only = true;
    } else if (arg == "--framing") {
      opts.framing_only = true;
    } else if (arg == "--trace-dir") {
      if (i + 1 >= argc) return usage(argv[0], 2);
      opts.trace_dir = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0], 0);
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return usage(argv[0], 2);
    }
  }

  if (!sld::check::invariants_enabled()) {
    std::cerr << "note: SLD_INVARIANT compiled out in this build; the "
                 "invariant oracle is vacuous (build with -DSLD_INVARIANTS=ON "
                 "or use tools/run_chaos.sh for the full campaign)\n";
  }

  // Single-schedule replay mode: always serial, whatever --jobs says —
  // a repro must not depend on worker scheduling.
  if (const char* env = std::getenv("SLD_CHAOS_SEED")) {
    const auto seed = parse_u64(env);
    if (!seed) {
      std::cerr << "SLD_CHAOS_SEED is not a number: " << env << "\n";
      return 2;
    }
    std::cerr << "replaying single schedule seed=" << *seed << "\n";
    return run_and_report(*seed, opts) ? 0 : 1;
  }

  if (opts.selftest_jobs > 0) return run_jobs_selftest(opts);

  std::size_t failed = 0;
  if (sld::core::resolve_jobs(opts.jobs) <= 1) {
    for (std::size_t i = 0; i < opts.schedules; ++i) {
      const std::uint64_t seed = opts.base_seed + i;
      if (!run_and_report(seed, opts)) ++failed;
      if ((i + 1) % 50 == 0) {
        std::cerr << "... " << (i + 1) << "/" << opts.schedules
                  << " schedules, " << failed << " failed\n";
      }
    }
  } else {
    // Parallel: run everything first, then report strictly in seed order
    // (any failure-trace re-run happens serially during reporting).
    const auto results = run_campaign(opts, opts.jobs);
    for (std::size_t i = 0; i < opts.schedules; ++i) {
      if (!report(opts.base_seed + i, opts, results[i])) ++failed;
    }
  }
  std::cout << "chaos campaign: " << opts.schedules << " schedules, "
            << (opts.schedules - failed) << " ok, " << failed
            << " failed (invariants "
            << (sld::check::invariants_enabled() ? "on" : "compiled out")
            << ")\n";
  return failed == 0 ? 0 : 1;
}
