// Trials program of the repository benchmark (see README.md). One process
// runs one workload's Monte-Carlo trials serially, closed-loop, through the
// public core::SecureLocalizationSystem API (constructor, then run()), and
// prints one JSON object per line:
//
//   {"kind":"ref", ...}    a host-speed reading (see reference_kernel_s)
//   {"kind":"trial", ...}  one per trial: host timings, output checks, the
//                          trial's output digest and its exact counters
//   {"kind":"units", ...}  (--units) unit costs timed here by calling each
//                          module's public functions on the trial's inputs
//   {"kind":"end", ...}    peak RSS and the in-process re-run verdict
//
// run.py turns these records into the benchmark's metrics. The in-program
// span profiler is never enabled: it inflates fine-grained layers.
//
// Usage:
//   perfbench_trials --workload NAME --seed N --seconds S
//                    [--min-trials K] [--units] [--memstats] [--tiny]
//   perfbench_trials --selftest
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <queue>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "core/secure_localization.hpp"
#include "crypto/mac.hpp"
#include "crypto/pairwise.hpp"
#include "detection/beacon_check.hpp"
#include "localization/multilateration.hpp"
#include "revocation/failover.hpp"
#include "revocation/shard.hpp"
#include "sim/scheduler.hpp"

namespace {

using namespace sld;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Keeps timed loops' results observable so they are not optimised away.
volatile std::uint64_t g_sink = 0;

/// Seed of trial `i` of a run started with `--seed seed`.
std::uint64_t trial_seed(std::uint64_t seed, std::size_t i) {
  return splitmix64(splitmix64(seed) + i);
}

// --- workloads --------------------------------------------------------------

bool known_workload(const std::string& name) {
  return name == "paper_1k" || name == "scale_16k" || name == "storm_lossy";
}

/// The configuration of trial `i`. Every workload keeps the paper's density
/// of 1,000 nodes per 10^6 ft^2 with 10% beacons, 10% of them malicious.
/// `tiny` shrinks the deployment to 300 nodes for the self-test.
core::SystemConfig make_config(const std::string& workload, std::size_t i,
                               std::uint64_t seed, bool tiny) {
  core::SystemConfig c;
  c.seed = trial_seed(seed, i);
  if (workload == "paper_1k") {
    // Paper section 4: strategy effectiveness P cycles 0.1 .. 1.0.
    c.strategy = attack::MaliciousStrategyConfig::with_effectiveness(
        static_cast<double>(i % 10 + 1) / 10.0);
  } else if (workload == "scale_16k") {
    c.deployment.total_nodes = 16'000;
    c.deployment.beacon_count = 1'600;
    c.deployment.malicious_beacon_count = 160;
    c.deployment.field = util::Rect::square(4'000.0);
  } else {  // storm_lossy: the paper deployment on the resilience stack
    c.collusion = true;
    c.storm.flood_alerts_per_colluder = tiny ? 200 : 2'000;
    c.ingest.admission.enabled = true;
    c.ingest.shard.count = 4;
    c.revocation.lifecycle.enabled = true;
    c.fallback.enabled = true;
    c.failover.durable.enabled = true;
    c.failover.standby_enabled = true;
    c.faults.loss_probability = 0.1;
    c.alert_loss_probability = 0.1;
    c.arq.enabled = true;
    c.arq.max_retries = 4;
  }
  if (tiny) {
    c.deployment.total_nodes = 300;
    c.deployment.beacon_count = 30;
    c.deployment.malicious_beacon_count = 3;
    c.deployment.field = util::Rect::square(548.0);
    c.rtt_calibration_samples = 2'000;
  }
  return c;
}

// --- output digest ------------------------------------------------------------

/// metrics_json with the values of its wall-clock gauges (phase.*) removed:
/// every other instrument is a pure function of (config, seed).
std::string strip_wall_clock(const std::string& json) {
  std::string out;
  out.reserve(json.size());
  static const std::string kKey = "\"phase.";
  std::size_t pos = 0;
  while (true) {
    const std::size_t hit = json.find(kKey, pos);
    if (hit == std::string::npos) break;
    const std::size_t colon = json.find("\":", hit + kKey.size());
    if (colon == std::string::npos) break;
    out.append(json, pos, colon + 2 - pos);
    std::size_t end = colon + 2;
    while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
    pos = end;
  }
  out.append(json, pos, std::string::npos);
  return out;
}

/// Every deterministic TrialSummary field rendered exactly; the wall-clock
/// gauges in metrics_json are excluded.
std::string render_summary(const core::TrialSummary& s) {
  std::ostringstream os;
  os.precision(17);
  const auto f = [&os](auto v) { os << v << '|'; };
  f(s.benign_beacons), f(s.malicious_beacons), f(s.sensors);
  f(s.avg_requesters_per_malicious), f(s.malicious_revoked);
  f(s.benign_revoked), f(s.malicious_quarantined), f(s.benign_quarantined);
  f(s.min_cell_usable), f(s.detection_rate), f(s.false_positive_rate);
  f(s.avg_affected_per_malicious), f(s.affected_sensor_references);
  f(s.sensors_localized), f(s.sensors_unlocalized);
  f(s.mean_localization_error_ft), f(s.max_localization_error_ft);
  f(s.p99_localization_error_ft), f(s.mean_malicious_revocation_latency_ms);
  f(s.radio_energy_uj), f(s.sched_events), f(s.rtt_x_max_cycles);

  const core::Metrics& m = s.raw;
  f(m.probes_sent), f(m.probe_replies), f(m.consistency_flags);
  f(m.probe_ignored_wormhole), f(m.probe_ignored_local_replay);
  f(m.alerts_submitted), f(m.collusion_alerts_submitted), f(m.mac_failures);
  f(m.probe_retransmissions), f(m.probe_no_response);
  f(m.sensor_retransmissions), f(m.sensor_no_response);
  f(m.alert_retransmissions), f(m.alerts_delivery_failed);
  f(m.alerts_dropped_reporter_crash), f(m.alerts_station_unavailable);
  for (const auto& [beacon, at] : m.revocation_times) f(beacon), f(at);
  f(m.sensor_requests), f(m.sensor_replies), f(m.sensor_discarded_wormhole);
  f(m.sensor_discarded_rtt), f(m.sensor_refs_dropped_revoked);
  f(m.sensor_refs_dropped_quarantined), f(m.sensors_localized);
  f(m.sensors_unlocalized), f(m.localization_error_ft.count());
  f(m.localization_error_ft.mean()), f(m.localization_error_ft.variance());
  for (const double e : m.localization_errors_ft) f(e);
  f(m.framing_alerts_submitted), f(m.sensors_tier_mlat);
  f(m.sensors_tier_robust), f(m.sensors_tier_centroid);
  const std::map<sim::NodeId, std::uint64_t> affected(
      m.affected_by_malicious.begin(), m.affected_by_malicious.end());
  for (const auto& [beacon, n] : affected) f(beacon), f(n);
  for (const auto& a : m.alert_log) f(a.reporter), f(a.target), f(a.collusion);

  const auto& bs = s.base_station;
  f(bs.alerts_received), f(bs.alerts_accepted), f(bs.alerts_ignored_quota);
  f(bs.alerts_ignored_revoked), f(bs.alerts_ignored_duplicate);
  f(bs.revocations), f(bs.dedup_evictions), f(bs.quarantines);
  f(bs.exonerations), f(bs.escalations), f(bs.guard_refusals);
  f(bs.coverage_floor_violations);
  f(s.cluster.failovers), f(s.cluster.fences), f(s.cluster.restarts);
  f(s.cluster.active_crashes);
  f(s.durable.appends), f(s.durable.flushes), f(s.durable.snapshots);
  f(s.durable.records_lost), f(s.durable.stalled_appends);
  f(s.durable.deferred_lost);
  const auto& in = s.ingest;
  f(in.submitted), f(in.accepted), f(in.rate_limited), f(in.shed);
  f(in.pair_duplicates), f(in.priority_admits), f(in.committed);
  f(in.deferred), f(in.deferred_journaled), f(in.deferred_lost);
  f(in.reconciled), f(in.breaker_transitions);
  const auto& ch = s.channel;
  f(ch.transmissions), f(ch.delivery_attempts), f(ch.deliveries);
  f(ch.wormhole_deliveries), f(ch.losses), f(ch.suppressed);
  f(ch.out_of_range), f(ch.dropped_by_fault), f(ch.duplicates);
  f(ch.corrupted), f(ch.crashed_drops), f(ch.crashed_tx_drops);
  f(ch.crashed_rx_drops), f(ch.partition_drops);
  f(s.slo.enabled), f(s.slo.healthy), f(s.slo.breaches), f(s.slo.recovers);
  // memhot.peak_live_bytes is an approximate bound, not an exact count.
  const auto& h = s.memhot;
  f(h.enabled), f(h.allocs), f(h.alloc_bytes), f(h.frees), f(h.freed_bytes);
  f(h.max_queue_depth), f(h.queue_depth_p99), f(h.sift_up_steps);
  f(h.sift_down_steps), f(h.scans), f(h.scan_nodes);
  f(h.packet_lifetime_p99_ns);
  os << strip_wall_clock(s.metrics_json);
  return os.str();
}

std::string digest_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const char ch : text) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// --- output checks ------------------------------------------------------------

/// The chaos campaign's oracles, applied to one finished trial. Returns one
/// message per violated check (empty: the output is correct).
std::vector<std::string> check_outputs(const core::TrialSummary& s,
                                       core::SecureLocalizationSystem& sys) {
  std::vector<std::string> failures;
  if (s.sensors_localized + s.sensors_unlocalized != s.sensors)
    failures.push_back("sensor accounting: localized + unlocalized != sensors");
  const auto& ch = s.channel;
  if (ch.deliveries + ch.losses + ch.dropped_by_fault + ch.crashed_rx_drops +
          ch.partition_drops !=
      ch.delivery_attempts + ch.duplicates)
    failures.push_back("channel conservation violated");
  const auto& cluster = sys.context().cluster;
  for (const auto& [target, accepted] : cluster.accepted_by_target()) {
    if (sys.context().bs().alert_counter(target) +
            cluster.wal().lost_alerts(target) !=
        accepted) {
      failures.push_back("counter identity violated for target " +
                         std::to_string(target));
      break;
    }
  }
  if (sys.network().scheduler().pending() != 0)
    failures.push_back("runaway guard hit: events left in the queue");
  return failures;
}

// --- host speed -----------------------------------------------------------------

/// Seconds the benchmark's own fixed reference work takes right now. The
/// host's speed can drift by ~2x over tens of seconds (other tenants contend
/// for the memory hierarchy), so run.py scales trial times by readings taken
/// around them (README.md, "Host-speed normalisation"). The work resembles
/// the simulator's: a binary-heap event loop with heap-allocated closures
/// and a hash table, then ordered-map and string-formatting churn. None of
/// it is the simulator's code, so a change to the simulator cannot move it.
double reference_kernel_s() {
  const auto t0 = Clock::now();
  using Item = std::pair<std::uint64_t, std::uint64_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  std::unordered_map<std::uint32_t, std::uint64_t> table;
  std::uint64_t x = 1;
  std::uint64_t acc = 0;
  for (int k = 0; k < 80'000; ++k) {
    x = splitmix64(x);
    heap.push({x >> 20, x});
    if (heap.size() > 65'536) {
      table[static_cast<std::uint32_t>(heap.top().second & 0x3ffff)] +=
          heap.top().first;
      heap.pop();
    }
    const std::function<void()> closure = [&acc, x, a = x * 3, b = x * 5,
                                           c = x * 7]() {
      acc += a ^ b ^ c ^ x;
    };
    closure();
  }
  std::map<std::uint64_t, std::string> names;
  for (int k = 0; k < 5'000; ++k) {
    x = splitmix64(x);
    std::ostringstream os;
    os << (x & 0xffff) << ':' << static_cast<double>(x >> 40) * 0.5;
    names[x & 0x3fff] = os.str();
    acc += names.begin()->second.size();
  }
  g_sink = g_sink + acc + table.size();
  return seconds_since(t0);
}

/// Takes host-speed readings at most once a second. A reading is the median
/// of three kernel runs, so a burst shorter than one run does not move it.
class HostSpeed {
 public:
  /// The first run after start-up pays for fresh pages; discard it.
  HostSpeed() { reference_kernel_s(); }

  /// Returns a fresh reading, or 0 when `force` is false and the last one
  /// is less than a second old.
  double read(bool force) {
    if (!force && seconds_since(last_) < 1.0) return 0.0;
    std::array<double, 3> runs{};
    for (double& r : runs) r = reference_kernel_s();
    std::sort(runs.begin(), runs.end());
    last_ = Clock::now();
    return runs[1];
  }

 private:
  Clock::time_point last_;
};

// --- one trial ------------------------------------------------------------------

struct Outcome {
  double setup_s = 0.0;
  double run_s = 0.0;
  /// Host-speed reading taken between the constructor and run(), 0 if none.
  double mid_ref_s = 0.0;
  core::TrialSummary summary;
  std::unique_ptr<core::SecureLocalizationSystem> sys;
  std::vector<std::string> failures;
  std::string digest;
};

Outcome run_trial(const core::SystemConfig& config, HostSpeed* host) {
  Outcome o;
  try {
    const auto t0 = Clock::now();
    o.sys = std::make_unique<core::SecureLocalizationSystem>(config);
    o.setup_s = seconds_since(t0);
    if (host != nullptr) o.mid_ref_s = host->read(false);
    const auto t1 = Clock::now();
    o.summary = o.sys->run();
    o.run_s = seconds_since(t1);
    o.failures = check_outputs(o.summary, *o.sys);
    o.digest = digest_hex(render_summary(o.summary));
  } catch (const std::exception& e) {
    o.failures.push_back(std::string("threw: ") + e.what());
  }
  return o;
}

// --- JSON output ------------------------------------------------------------------

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

/// One flat JSON object, written in insertion order.
class JsonLine {
 public:
  JsonLine& num(const std::string& key, double v) {
    std::ostringstream os;
    os.precision(17);
    os << v;
    return raw(key, os.str());
  }
  JsonLine& num(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonLine& str(const std::string& key, const std::string& v) {
    return raw(key, quoted(v));
  }
  JsonLine& raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "{" : ",";
    body_ += quoted(key) + ":" + json;
    return *this;
  }
  std::string done() const { return body_ + "}"; }

 private:
  std::string body_;
};

std::uint64_t u64(std::size_t v) { return static_cast<std::uint64_t>(v); }

/// The exact per-trial counters the per-layer metrics are derived from.
std::string layer_counts(const Outcome& o) {
  const core::TrialSummary& s = o.summary;
  const core::Metrics& m = s.raw;
  const sim::Network& net = o.sys->network();
  JsonLine j;
  j.num("nodes", u64(net.node_count()));
  // build_nodes: one connected_nodes call per benign beacon and sensor;
  // schedule_finalize: one per sensor; summarize: one per malicious beacon.
  j.num("connected_calls",
        u64(s.benign_beacons + 2 * s.sensors + s.malicious_beacons));
  j.num("events", s.sched_events);
  j.num("max_queue_depth", u64(net.scheduler().max_pending()));
  j.num("sift_down_steps", net.scheduler().sift_down_steps());
  j.num("transmissions", s.channel.transmissions);
  j.num("delivery_attempts", s.channel.delivery_attempts);
  j.num("deliveries", s.channel.deliveries);
  j.num("drops", s.channel.losses + s.channel.dropped_by_fault +
                     s.channel.partition_drops + s.channel.crashed_drops);
  j.num("bytes_sent", net.channel().total_radio().bytes_sent);
  j.num("scans", s.memhot.scans);
  j.num("scan_nodes", s.memhot.scan_nodes);
  j.num("packet_lifetime_p99_ns", s.memhot.packet_lifetime_p99_ns);
  j.num("mac_failures", m.mac_failures);
  j.num("checks", m.probe_replies);
  j.num("flags", m.consistency_flags);
  j.num("replay_filtered", m.probe_ignored_wormhole +
                               m.probe_ignored_local_replay +
                               m.sensor_discarded_wormhole +
                               m.sensor_discarded_rtt);
  j.num("retransmissions", m.probe_retransmissions +
                               m.sensor_retransmissions +
                               m.alert_retransmissions);
  j.num("no_response", m.probe_no_response + m.sensor_no_response);
  j.num("first_sends", m.probes_sent + m.sensor_requests +
                           m.alerts_submitted + m.collusion_alerts_submitted);
  j.num("alerts_submitted", m.alerts_submitted + m.collusion_alerts_submitted);
  j.num("alerts_received", s.base_station.alerts_received);
  j.num("alerts_accepted", s.base_station.alerts_accepted);
  j.num("revocations", s.base_station.revocations);
  // Calls into the revocation layer's entry point: IngestPipeline::submit
  // when the pipeline is on, BaseStationCluster::process_alert otherwise.
  j.num("revocation_calls", o.sys->config().ingest.enabled()
                                ? s.ingest.submitted
                                : s.base_station.alerts_received);
  j.num("ingest_rate_limited", s.ingest.rate_limited);
  j.num("ingest_shed", s.ingest.shed);
  j.num("wal_appends", s.durable.appends);
  j.num("solves", u64(s.sensors_localized + s.sensors_unlocalized));
  j.num("refs_used", m.sensor_replies - m.sensor_discarded_wormhole -
                         m.sensor_discarded_rtt -
                         m.sensor_refs_dropped_revoked -
                         m.sensor_refs_dropped_quarantined);
  j.num("tier_centroid", m.sensors_tier_centroid);
  j.num("allocs", s.memhot.allocs);
  j.num("alloc_bytes", s.memhot.alloc_bytes);
  return j.done();
}

std::string trial_line(std::size_t i, const core::SystemConfig& config,
                       const Outcome& o, bool warmup, bool with_counts) {
  JsonLine j;
  j.str("kind", "trial").num("i", u64(i)).num("seed", config.seed);
  j.raw("warmup", warmup ? "true" : "false");
  j.num("setup_s", o.setup_s).num("run_s", o.run_s);
  if (o.mid_ref_s > 0.0) j.num("mid_ref_s", o.mid_ref_s);
  std::string failures = "[";
  for (const auto& f : o.failures) {
    if (failures.size() > 1) failures += ',';
    failures += quoted(f);
  }
  j.raw("failures", failures + "]");
  if (o.sys == nullptr) return j.done();
  const core::TrialSummary& s = o.summary;
  j.str("digest", o.digest).num("events", s.sched_events);
  j.num("malicious", u64(s.malicious_beacons));
  j.num("detected", u64(s.malicious_revoked + s.malicious_quarantined));
  j.num("benign", u64(s.benign_beacons));
  j.num("benign_revoked", u64(s.benign_revoked));
  j.num("sensors", u64(s.sensors));
  j.num("localized", u64(s.sensors_localized));
  std::vector<double> errors = s.raw.localization_errors_ft;
  double p50 = 0.0;
  if (!errors.empty()) {
    const auto mid = errors.begin() + static_cast<std::ptrdiff_t>(errors.size() / 2);
    std::nth_element(errors.begin(), mid, errors.end());
    p50 = *mid;
  }
  j.num("loc_error_p50_ft", p50);
  if (with_counts) {
    j.raw("counts", layer_counts(o));
    j.raw("metrics", s.metrics_json);
  }
  return j.done();
}

// --- unit costs -------------------------------------------------------------------

/// Median over `reps` repetitions of `batch()`'s seconds per operation,
/// where each call of `batch` performs `ops` operations.
template <typename Batch>
double median_seconds_per_op(int reps, double ops, Batch&& batch) {
  std::vector<double> per_op;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    batch();
    per_op.push_back(seconds_since(t0) / ops);
  }
  std::sort(per_op.begin(), per_op.end());
  return per_op[per_op.size() / 2];
}

/// A self-rescheduling event whose capture (64 bytes) exceeds
/// std::function's inline buffer, like the channel's delivery closures.
struct Reschedule {
  sim::Scheduler* sched;
  std::uint64_t* remaining;
  std::array<std::uint64_t, 6> words;
  void operator()() const {
    g_sink = g_sink + words[0];
    if (*remaining == 0) return;
    --*remaining;
    Reschedule next = *this;
    next.words[0] = words[0] * 6364136223846793005ULL + 1442695040888963407ULL;
    sched->schedule_after(static_cast<sim::SimTime>(next.words[0] >> 44),
                          next);
  }
};

/// ns per event of Scheduler::schedule_after + run at a steady queue depth.
double scheduler_event_ns(std::size_t depth) {
  depth = std::clamp<std::size_t>(depth, 64, 1 << 18);
  const std::uint64_t total = std::max<std::uint64_t>(4 * depth, 200'000);
  double events = 0.0;
  const double s = median_seconds_per_op(5, 1.0, [&]() {
    sim::Scheduler sched;
    std::uint64_t remaining = total - depth;
    for (std::size_t k = 0; k < depth; ++k) {
      Reschedule ev{&sched, &remaining, {}};
      ev.words[0] = splitmix64(k);
      sched.schedule_after(static_cast<sim::SimTime>(ev.words[0] >> 44), ev);
    }
    sched.run();
    events = static_cast<double>(sched.executed());
  });
  return s / events * 1e9;
}

/// ns per MAC: pairwise key derivation plus compute_mac or verify_mac over
/// a `payload_bytes` payload, as the message path does per send / receive.
double mac_ns(std::size_t payload_bytes) {
  const auto keys = crypto::PairwiseKeyManager::from_seed(0x5eed);
  std::vector<std::uint8_t> payload(std::max<std::size_t>(payload_bytes, 1));
  for (std::size_t k = 0; k < payload.size(); ++k)
    payload[k] = static_cast<std::uint8_t>(splitmix64(k));
  constexpr int kPairs = 20'000;
  return median_seconds_per_op(5, 2.0 * kPairs, [&]() {
    std::uint64_t ok = 0;
    for (std::uint32_t k = 0; k < kPairs; ++k) {
      const std::uint32_t a = k % 1000;
      const std::uint32_t b = (k * 7 + 1) % 1000;
      const auto tag = crypto::compute_mac(keys.pairwise_key(a, b), a, b,
                                           payload);
      ok += crypto::verify_mac(keys.pairwise_key(a, b), a, b, payload, tag);
    }
    g_sink = g_sink + ok;
  }) * 1e9;
}

/// ns per ConsistencyCheck::check on random detector/claim geometry.
double check_ns() {
  const detection::ConsistencyCheck check(4.0);
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> pos(0.0, 1000.0);
  std::uniform_real_distribution<double> dist(0.0, 150.0);
  constexpr std::size_t kN = 4096;
  std::vector<util::Vec2> a(kN), b(kN);
  std::vector<double> d(kN);
  for (std::size_t k = 0; k < kN; ++k) {
    a[k] = {pos(rng), pos(rng)};
    b[k] = {pos(rng), pos(rng)};
    d[k] = dist(rng);
  }
  constexpr int kRounds = 100;
  return median_seconds_per_op(5, static_cast<double>(kN) * kRounds, [&]() {
    std::uint64_t flagged = 0;
    for (int r = 0; r < kRounds; ++r)
      for (std::size_t k = 0; k < kN; ++k)
        flagged += check.check(a[k], b[k], d[k]).malicious;
    g_sink = g_sink + flagged;
  }) * 1e9;
}

/// ns per alert entering the revocation layer of a fresh cluster built from
/// the trial's config: IngestPipeline::submit when the pipeline is on,
/// BaseStationCluster::process_alert otherwise. Includes the final drain.
double revocation_submit_ns(const core::SecureLocalizationSystem& sys) {
  const core::SystemConfig& cfg = sys.config();
  std::vector<std::pair<sim::NodeId, util::Vec2>> roster;
  for (const auto& spec : sys.deployment().nodes)
    if (spec.beacon) roster.emplace_back(spec.id, spec.position);
  constexpr int kAlerts = 20'000;
  std::vector<double> per_op;
  for (int r = 0; r < 5; ++r) {
    revocation::BaseStationCluster cluster(cfg.revocation, cfg.failover);
    if (cfg.revocation.lifecycle.enabled) cluster.set_beacon_roster(roster);
    revocation::IngestPipeline ingest(cfg.ingest, cluster);
    const auto t0 = Clock::now();
    sim::SimTime now = 0;
    for (int k = 0; k < kAlerts; ++k) {
      now += sim::kMillisecond;
      const std::uint64_t h = splitmix64(static_cast<std::uint64_t>(k));
      const sim::NodeId reporter = roster[h % roster.size()].first;
      const sim::NodeId target = roster[(h >> 32) % roster.size()].first;
      const auto nonce = static_cast<std::uint64_t>(k) + 1;
      if (ingest.enabled())
        ingest.submit(now, reporter, target, nonce);
      else if (cluster.available(now))
        cluster.process_alert(now, reporter, target, nonce);
    }
    ingest.drain(now);
    per_op.push_back(seconds_since(t0) / kAlerts);
  }
  std::sort(per_op.begin(), per_op.end());
  return per_op[per_op.size() / 2] * 1e9;
}

/// us per MultilaterationSolver::solve with `refs` noisy references.
double solve_us(std::size_t refs) {
  refs = std::max<std::size_t>(refs, 3);
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> pos(150.0, 850.0);
  std::uniform_real_distribution<double> offset(-100.0, 100.0);
  std::uniform_real_distribution<double> noise(-4.0, 4.0);
  constexpr std::size_t kProblems = 256;
  std::vector<localization::LocationReferences> problems(kProblems);
  for (auto& p : problems) {
    const util::Vec2 truth{pos(rng), pos(rng)};
    for (std::size_t k = 0; k < refs; ++k) {
      localization::LocationReference ref;
      ref.beacon_id = static_cast<std::uint32_t>(k);
      ref.beacon_position = {truth.x + offset(rng), truth.y + offset(rng)};
      ref.measured_distance_ft =
          util::distance(truth, ref.beacon_position) + noise(rng);
      p.push_back(ref);
    }
  }
  const localization::MultilaterationSolver solver;
  constexpr int kRounds = 10;
  return median_seconds_per_op(5, static_cast<double>(kProblems) * kRounds, [&]() {
    std::uint64_t solved = 0;
    for (int r = 0; r < kRounds; ++r)
      for (const auto& p : problems) solved += solver.solve(p).has_value();
    g_sink = g_sink + solved;
  }) * 1e6;
}

/// Times the public functions behind each layer on the inputs of one
/// finished trial and prints the "units" record.
void print_units(const Outcome& o) {
  const core::TrialSummary& s = o.summary;
  sim::Network& net = o.sys->network();

  // One connected_nodes call per node on the trial's own network.
  double degree_sum = 0.0;
  std::vector<double> pass_s;
  const auto started = Clock::now();
  while (pass_s.empty() || (pass_s.size() < 9 && seconds_since(started) < 0.3)) {
    degree_sum = 0.0;
    const auto t0 = Clock::now();
    for (const sim::Node* node : net.nodes())
      degree_sum += static_cast<double>(net.connected_nodes(node->id()).size());
    pass_s.push_back(seconds_since(t0));
  }
  std::sort(pass_s.begin(), pass_s.end());
  const double nodes = static_cast<double>(net.node_count());

  const double tx = static_cast<double>(std::max<std::uint64_t>(
      s.channel.transmissions, 1));
  const double bytes_per_tx =
      static_cast<double>(net.channel().total_radio().bytes_sent) / tx;
  const double frame = static_cast<double>(sim::ChannelConfig{}.frame_overhead_bytes);
  const auto payload = static_cast<std::size_t>(
      std::max(1.0, bytes_per_tx - frame) + 0.5);

  const core::Metrics& m = s.raw;
  const double refs_used = static_cast<double>(
      m.sensor_replies - m.sensor_discarded_wormhole - m.sensor_discarded_rtt -
      m.sensor_refs_dropped_revoked - m.sensor_refs_dropped_quarantined);
  const auto refs = static_cast<std::size_t>(
      refs_used / static_cast<double>(std::max<std::size_t>(s.sensors, 1)) + 0.5);

  JsonLine j;
  j.str("kind", "units");
  j.num("connected_pass_ms", pass_s[pass_s.size() / 2] * 1e3);
  j.num("avg_degree", degree_sum / nodes);
  j.num("event_ns", scheduler_event_ns(net.scheduler().max_pending()));
  j.num("mac_payload_bytes", u64(payload));
  j.num("mac_ns", mac_ns(payload));
  j.num("check_ns", check_ns());
  j.num("submit_ns", revocation_submit_ns(*o.sys));
  j.num("solve_refs", u64(refs));
  j.num("solve_us", solve_us(refs));
  std::cout << j.done() << "\n" << std::flush;
}

// --- run loop ---------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::size_t min_trials = 1;
  bool units = false;
  bool memstats = false;
  bool tiny = false;
  bool selftest = false;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int run_trials(const Options& opt) {
  const auto started = Clock::now();
  const bool counts = opt.units || opt.memstats;

  // Host-speed readings, at most once a second: before a trial, between
  // its constructor and run() (kept in the trial's record), around the unit
  // costs, and at the end. run.py scales each phase by the readings taken
  // just before and just after it.
  HostSpeed host;
  const auto read_host_speed = [&](bool force) {
    if (const double s = host.read(force); s > 0.0) {
      JsonLine j;
      j.str("kind", "ref").num("s", s);
      std::cout << j.done() << "\n" << std::flush;
    }
  };

  const auto config_of = [&](std::size_t i) {
    core::SystemConfig c = make_config(opt.workload, i, opt.seed, opt.tiny);
    c.memstats = opt.memstats;
    return c;
  };

  // Warm-up: trial 0, untimed. Its digest is compared below with the timed
  // re-run of the same seed in this process.
  const core::SystemConfig first = config_of(0);
  read_host_speed(true);
  Outcome warm = run_trial(first, &host);
  std::cout << trial_line(0, first, warm, true, false) << "\n" << std::flush;
  if (opt.units && warm.sys != nullptr) {
    read_host_speed(true);
    print_units(warm);
    read_host_speed(true);
  }
  const std::string warm_digest = warm.digest;
  warm = Outcome{};

  // Closed loop: the next trial starts when the previous one returns, and
  // only if it can finish (judging by the last trial) within the budget.
  bool rerun_identical = false;
  double last_trial_s = 0.0;
  double quality_rss_mb = 0.0;
  for (std::size_t i = 0; i < opt.min_trials ||
                          seconds_since(started) + last_trial_s < opt.seconds;
       ++i) {
    const core::SystemConfig config = config_of(i);
    read_host_speed(false);
    const auto trial_started = Clock::now();
    Outcome o = run_trial(config, &host);
    last_trial_s = seconds_since(trial_started);
    if (i == 0) {
      rerun_identical = o.sys != nullptr && o.digest == warm_digest;
      if (!rerun_identical)
        o.failures.push_back("in-process re-run of the first seed changed "
                             "the output digest");
    }
    std::cout << trial_line(i, config, o, false, counts) << "\n" << std::flush;
    // Peak RSS over a fixed set of trials, so it does not grow with the
    // number of trials the budget admits.
    if (i + 1 == opt.min_trials) quality_rss_mb = peak_rss_mb();
  }
  read_host_speed(true);
  JsonLine end;
  end.str("kind", "end").num("peak_rss_mb", quality_rss_mb);
  end.raw("rerun_identical", rerun_identical ? "true" : "false");
  std::cout << end.done() << "\n" << std::flush;
  return 0;
}

/// Checks that the output checks pass on a real trial and trip on a
/// corrupted copy of its summary. Prints one line per case; exit 0 iff all
/// behave.
int selftest() {
  const core::SystemConfig config = make_config("storm_lossy", 0, 1, true);
  Outcome o = run_trial(config, nullptr);
  bool ok = o.sys != nullptr && o.failures.empty();
  std::cout << "clean trial passes checks: " << (ok ? "yes" : "NO") << "\n";
  if (o.sys == nullptr) return 1;

  core::TrialSummary lost_sensor = o.summary;
  ++lost_sensor.sensors_localized;
  const bool t1 = !check_outputs(lost_sensor, *o.sys).empty();
  std::cout << "corrupted sensor accounting trips: " << (t1 ? "yes" : "NO")
            << "\n";

  core::TrialSummary extra_delivery = o.summary;
  ++extra_delivery.channel.deliveries;
  const bool t2 = !check_outputs(extra_delivery, *o.sys).empty();
  std::cout << "corrupted channel conservation trips: " << (t2 ? "yes" : "NO")
            << "\n";

  core::TrialSummary changed = o.summary;
  changed.mean_localization_error_ft += 1e-9;
  const bool t3 = digest_hex(render_summary(changed)) != o.digest;
  std::cout << "corrupted summary changes the digest: " << (t3 ? "yes" : "NO")
            << "\n";
  return ok && t1 && t2 && t3 ? 0 : 1;
}

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench_trials: " << error << "\n"
            << "usage: perfbench_trials --workload paper_1k|scale_16k|"
               "storm_lossy --seed N --seconds S [--min-trials K] [--units] "
               "[--memstats] [--tiny]\n"
               "       perfbench_trials --selftest\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int k = 1; k < argc; ++k) {
    const std::string a = argv[k];
    const auto value = [&]() -> std::string {
      if (k + 1 >= argc) usage("missing value for " + a);
      return argv[++k];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--min-trials") {
        opt.min_trials = std::stoul(value());
      } else if (a == "--units") {
        opt.units = true;
      } else if (a == "--memstats") {
        opt.memstats = true;
      } else if (a == "--tiny") {
        opt.tiny = true;
      } else if (a == "--selftest") {
        opt.selftest = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("malformed value for " + a);
    }
  }
  if (!opt.selftest && !known_workload(opt.workload))
    usage("unknown workload '" + opt.workload + "'");
  if (opt.min_trials == 0) usage("--min-trials must be at least 1");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  return opt.selftest ? selftest() : run_trials(opt);
}
