// The full system: deployment -> crypto provisioning -> probing phase
// (detecting nodes + base-station revocation) -> sensor localization phase
// -> metrics. One SecureLocalizationSystem instance runs one trial; the
// whole trial is a pure function of (SystemConfig, SystemConfig::seed).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/nodes.hpp"
#include "crypto/detecting_ids.hpp"
#include "obs/memstats.hpp"
#include "sim/deployment.hpp"
#include "sim/hotstats.hpp"
#include "sim/network.hpp"

namespace sld::core {

/// Digest of one trial.
struct TrialSummary {
  // Topology.
  std::size_t benign_beacons = 0;
  std::size_t malicious_beacons = 0;
  std::size_t sensors = 0;
  /// Average number of requester nodes connected to a malicious beacon —
  /// the measured N_c fed back into the analytical model.
  double avg_requesters_per_malicious = 0.0;

  // Revocation outcomes. With the evidence lifecycle enabled,
  // `detection_rate` counts quarantined-or-revoked malicious beacons
  // (quarantine is reversible sequestration — the beacon is out of
  // service either way), while `benign_revoked` / `false_positive_rate`
  // stay PERMANENT revocations only: a quarantined benign beacon that
  // exonerates was never falsely revoked.
  std::size_t malicious_revoked = 0;
  std::size_t benign_revoked = 0;
  /// Beacons held in (non-permanent) quarantine when the trial ended.
  /// Always 0 while revocation.lifecycle is disabled.
  std::size_t malicious_quarantined = 0;
  std::size_t benign_quarantined = 0;
  /// Minimum usable-beacon count over occupied deployment cells at the
  /// end of the trial (lifecycle runs only; 0 otherwise).
  std::uint32_t min_cell_usable = 0;
  double detection_rate = 0.0;       // (revoked + quarantined) / N_a
  double false_positive_rate = 0.0;  // benign_revoked / (N_b - N_a)

  // Attack impact.
  /// N': average number of non-beacon requesters that kept an effective
  /// malicious reference, per malicious beacon.
  double avg_affected_per_malicious = 0.0;
  std::size_t affected_sensor_references = 0;

  // Localization quality.
  std::size_t sensors_localized = 0;
  std::size_t sensors_unlocalized = 0;
  double mean_localization_error_ft = 0.0;
  double max_localization_error_ft = 0.0;
  /// Nearest-rank p99 of the per-sensor error sample (0 when no sensor
  /// localized).
  double p99_localization_error_ft = 0.0;

  // Fault tolerance.
  /// Mean time until a malicious beacon was revoked, in milliseconds of
  /// simulated time (0 when none was revoked).
  double mean_malicious_revocation_latency_ms = 0.0;
  /// Whole-network radio energy spent this trial, in microjoules — the
  /// denominator of retransmission-overhead comparisons.
  double radio_energy_uj = 0.0;

  // Throughput denominators (also present as gauges in metrics_json).
  /// Scheduler events executed this trial.
  std::uint64_t sched_events = 0;

  // Calibration + raw counters.
  double rtt_x_max_cycles = 0.0;
  Metrics raw;
  revocation::BaseStationStats base_station;
  /// Failover/durability accounting (all zero with the default config).
  revocation::ClusterStats cluster;
  revocation::DurableStoreStats durable;
  /// Ingestion-pipeline accounting (all zero with the default config).
  revocation::IngestStats ingest;
  sim::ChannelStats channel;

  /// SLO health verdict (inert defaults unless telemetry + SLO rules were
  /// configured; the full breach log rides in metrics_json under "slo").
  struct SloHealth {
    bool enabled = false;
    /// No rule was in breach when the trial ended (recovered breaches
    /// still show in `breaches`).
    bool healthy = true;
    std::uint64_t breaches = 0;
    std::uint64_t recovers = 0;
  };
  SloHealth slo;

  /// Memory & hot-path micro-observability roll-up (inert defaults unless
  /// SystemConfig::memstats was on): per-scope allocation deltas summed
  /// over the simulation scopes, scheduler heap statistics and channel
  /// scan fan-out. The integer counts are exact and identical at any
  /// --jobs; peak_live_bytes is an approximate upper bound (see
  /// obs/memstats.hpp).
  obs::MemHotTotals memhot;

  /// JSON snapshot of the trial's instrument registry (counters, gauges,
  /// histograms with p50/p90/p99, per-phase wall-clock timings). The
  /// wall-clock gauges make this the one TrialSummary field that is NOT a
  /// pure function of (config, seed).
  std::string metrics_json;
};

class SecureLocalizationSystem {
 public:
  explicit SecureLocalizationSystem(SystemConfig config);
  // Scheduled events and registered instruments hold this address.
  SecureLocalizationSystem(const SecureLocalizationSystem&) = delete;
  SecureLocalizationSystem& operator=(const SecureLocalizationSystem&) =
      delete;

  /// Runs the trial once. Must not be called twice on the same instance.
  TrialSummary run();

  // Post-run (or post-construction) introspection for examples/benches.
  const SystemConfig& config() const { return config_; }
  const sim::Deployment& deployment() const { return deployment_; }
  const SystemContext& context() const { return *ctx_; }
  sim::Network& network() { return network_; }

 private:
  /// One memstats scope's thread totals at trial setup; the trial's own
  /// allocations are the running totals minus this baseline.
  struct MemBaseline {
    const char* tag = nullptr;
    obs::MemScopeStats start;
    obs::MemScopeStats delta() const;
  };

  /// One alert of the colluders' flood, and its place in draw order.
  struct FloodAlert {
    sim::SimTime at = 0;
    std::uint32_t draw = 0;
    sim::NodeId reporter = 0;
    sim::NodeId victim = 0;
  };

  void build_nodes();
  /// Submits the collusion plan's alerts and plans the alert-storm flood
  /// as one series in (time, draw order) (see run_flood).
  void schedule_collusion();
  /// Schedules flood alert j + 1, then submits alert j: only the next
  /// alert of the flood waits in the queue.
  void run_flood(std::size_t j);
  /// Schedules the coverage-directed framing plan (attack/framing). No-op
  /// — and draws no randomness — unless config.framing.enabled.
  void schedule_framing();
  void schedule_failover();
  void schedule_finalize();
  void setup_telemetry();
  /// Registers mem.*/hot.* instruments, captures the per-scope allocation
  /// baseline and wires the scheduler/channel micro-counter sinks. No-op
  /// (and registers nothing) unless config.memstats is set.
  void setup_memstats();
  /// End-of-run fold: fills memhot_ from the baseline deltas, the
  /// scheduler's and channel's totals and the hot.* histograms.
  void fold_memstats();
  /// Presample hook: sets the gauges whose value depends on the window
  /// time `t` (the breaker poll, the coverage floor) and host RSS. Pure
  /// reads only — it must never perturb the simulation.
  void sample_window_edge(std::int64_t t);
  TrialSummary summarize() const;

  SystemConfig config_;
  std::unique_ptr<SystemContext> ctx_;
  sim::Network network_;
  sim::Deployment deployment_;
  std::vector<BeaconNode*> benign_nodes_;
  std::vector<MaliciousBeaconNode*> malicious_nodes_;
  std::vector<SensorNode*> sensor_nodes_;
  crypto::DetectingIdRegistry detecting_registry_;
  std::vector<MemBaseline> mem_;
  std::vector<FloodAlert> flood_;  // by (at, draw)
  sim::Scheduler::Reservation flood_series_;
  sim::HotStats hot_;
  /// Gauges the presample hook sets (nullptr when not registered).
  obs::Gauge* breaker_gauge_ = nullptr;     // bs.ingest.breaker_state
  obs::Gauge* min_usable_gauge_ = nullptr;  // coverage.min_usable
  obs::Gauge* rss_gauge_ = nullptr;         // mem.rss_kb
  obs::MemHotTotals memhot_;
  bool ran_ = false;
};

}  // namespace sld::core
