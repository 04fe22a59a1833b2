// Protocol node implementations wiring the detection/revocation logic into
// the simulator: benign beacons (which double as detecting nodes), malicious
// beacons, non-beacon sensors, the requester layer the detecting beacons
// and the sensors share, and the shared per-trial SystemContext.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "attack/strategy.hpp"
#include "core/config.hpp"
#include "crypto/pairwise.hpp"
#include "detection/detector.hpp"
#include "localization/fallback.hpp"
#include "localization/location_reference.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "ranging/rssi.hpp"
#include "ranging/rtt.hpp"
#include "ranging/toa.hpp"
#include "ranging/wormhole_detector.hpp"
#include "revocation/base_station.hpp"
#include "revocation/failover.hpp"
#include "revocation/shard.hpp"
#include "sim/network.hpp"
#include "util/stats.hpp"

namespace sld::core {

/// Ground truth the metrics oracle keeps about every beacon.
struct BeaconTruth {
  util::Vec2 true_position;
  bool malicious = false;
};

/// Raw counters collected during one trial.
struct Metrics {
  // Probing (detecting-node) phase.
  std::uint64_t probes_sent = 0;
  std::uint64_t probe_replies = 0;
  std::uint64_t consistency_flags = 0;
  std::uint64_t probe_ignored_wormhole = 0;
  std::uint64_t probe_ignored_local_replay = 0;
  std::uint64_t alerts_submitted = 0;
  std::uint64_t collusion_alerts_submitted = 0;
  std::uint64_t mac_failures = 0;

  // ARQ / fault-tolerance accounting (all zero with the default config).
  std::uint64_t probe_retransmissions = 0;
  std::uint64_t probe_no_response = 0;  // ProbeOutcome::kNoResponse count
  std::uint64_t sensor_retransmissions = 0;
  std::uint64_t sensor_no_response = 0;
  std::uint64_t alert_retransmissions = 0;
  std::uint64_t alerts_delivery_failed = 0;
  /// Alerts (including queued retries) that died because their reporter
  /// crashed before the delivery attempt fired — crash windows lose the
  /// reporter's volatile ARQ state.
  std::uint64_t alerts_dropped_reporter_crash = 0;
  /// Delivery attempts that found no base station available (primary down,
  /// standby not yet promoted); retried under the ARQ policy like a loss.
  std::uint64_t alerts_station_unavailable = 0;

  /// (revoked beacon, simulation time) per revocation, in order — the
  /// basis of revocation-latency reporting under lossy alert transport.
  std::vector<std::pair<sim::NodeId, sim::SimTime>> revocation_times;

  // Sensor (localization) phase.
  std::uint64_t sensor_requests = 0;
  std::uint64_t sensor_replies = 0;
  std::uint64_t sensor_discarded_wormhole = 0;
  std::uint64_t sensor_discarded_rtt = 0;
  std::uint64_t sensor_refs_dropped_revoked = 0;
  /// References dropped because their beacon was quarantined (always 0
  /// while the lifecycle is disabled).
  std::uint64_t sensor_refs_dropped_quarantined = 0;
  std::uint64_t sensors_localized = 0;
  std::uint64_t sensors_unlocalized = 0;
  util::RunningStat localization_error_ft;
  /// Per-sensor localization errors in finalize order — the raw sample
  /// the benches compute tail quantiles (p99) from.
  std::vector<double> localization_errors_ft;
  /// Framing accusations scheduled by the framing plan (0 unless the
  /// framing attack is enabled).
  std::uint64_t framing_alerts_submitted = 0;
  /// Fallback-ladder rung counts (all 0 while the ladder is disabled).
  std::uint64_t sensors_tier_mlat = 0;
  std::uint64_t sensors_tier_robust = 0;
  std::uint64_t sensors_tier_centroid = 0;

  /// Per malicious beacon: how many distinct sensors accepted (and kept,
  /// post-revocation) its effective malicious reference.
  std::unordered_map<sim::NodeId, std::uint64_t> affected_by_malicious;

  /// Every alert submitted this trial, in submission order — consumed by
  /// the distributed-revocation evaluation, which replays them as local
  /// votes instead of base-station reports.
  struct LoggedAlert {
    sim::NodeId reporter = 0;
    sim::NodeId target = 0;
    bool collusion = false;
  };
  std::vector<LoggedAlert> alert_log;
};

/// Shared per-trial state every node holds a reference to. Owned by
/// SecureLocalizationSystem; nodes must not outlive it.
struct SystemContext {
  explicit SystemContext(const SystemConfig& config);

  const SystemConfig& config;
  crypto::PairwiseKeyManager keys;
  ranging::RssiRangingModel rssi;
  ranging::ToaRangingModel toa;
  ranging::MoteTimingModel timing;

  /// Maximum honest error of the configured ranging feature, feet — the
  /// consistency detector's threshold.
  double max_ranging_error_ft() const;
  ranging::RttCalibration rtt_calibration;
  std::unique_ptr<ranging::WormholeDetector> wormhole_detector;
  std::optional<detection::Detector> detector;  // built after calibration
  /// Base-station side of the protocol. With the default FailoverConfig
  /// this is a pass-through single station, bit-for-bit the seed behaviour;
  /// chaos configs give it durable storage, outages, and a standby.
  revocation::BaseStationCluster cluster;
  /// Overload-resilient ingestion in front of the cluster. Disabled (the
  /// default) it is an exact pass-through; enabled it owns admission,
  /// shard queues, and the WAL circuit breaker. Alerts enter through
  /// deliver_alert_attempt -> ingest.submit.
  revocation::IngestPipeline ingest;
  /// The station whose word currently counts (revocation list, counters).
  const revocation::BaseStation& bs() const { return cluster.authority(); }
  std::unordered_map<sim::NodeId, BeaconTruth> truth;
  Metrics metrics;
  util::Rng rng;
  sim::Scheduler* scheduler = nullptr;  // set by the system before start
  /// Fault injector of the trial's channel (set by the system alongside
  /// `scheduler`); nullptr means no fault model exists (unit-test contexts).
  const sim::FaultInjector* faults = nullptr;
  /// Monotonic alert-nonce source: every submitted alert gets a fresh nonce
  /// so base-station dedup can tell a retransmitted copy from new evidence.
  std::uint64_t next_alert_nonce = 0;

  /// Event tracer shared by every node (off until the system installs a
  /// sink-backed one alongside the scheduler).
  obs::Tracer tracer;

  /// Per-trial instrument registry, snapshotted into
  /// TrialSummary::metrics_json. The histogram pointers below are
  /// registered by the constructor and stay valid for the trial.
  obs::MetricsRegistry instruments;
  obs::Histogram* rtt_probe_hist = nullptr;      // rtt.probe_cycles
  obs::Histogram* rtt_query_hist = nullptr;      // rtt.query_cycles
  obs::Histogram* residual_hist = nullptr;       // ranging.residual_ft
  obs::Histogram* alert_counter_hist = nullptr;  // bs.alert_counter
  obs::Histogram* node_energy_hist = nullptr;    // radio.node_energy_uj
  /// recovery.latency_ms — registered only when failover is configured, so
  /// default metric snapshots (and the bench goldens) are unchanged.
  obs::Histogram* recovery_hist = nullptr;

  /// Backs the nodes' in-flight tables and accepted references. They grow
  /// on the message path, where this per-trial arena makes growth a
  /// pointer bump instead of a heap allocation; the context releases it
  /// all at once. Nodes run on the trial's thread, so it takes no lock.
  std::pmr::monotonic_buffer_resource node_memory;
  /// The reference list each SensorNode::finalize refills. Every finalize
  /// runs on the trial's thread, so one buffer serves them all.
  localization::LocationReferences finalize_refs;

  /// Streaming telemetry sampler and SLO monitor — constructed by the
  /// system only when config.telemetry.enabled (same goldens discipline as
  /// the conditional instruments above). The chaos campaign reads the
  /// sampler's ring tail as failure context.
  std::unique_ptr<obs::TimeseriesSampler> timeseries;
  std::unique_ptr<obs::SloMonitor> slo;

  /// Delivers an alert to the base station with a small random transport
  /// jitter, so honest and colluding alerts interleave realistically.
  /// With `alert_loss_probability > 0` each delivery attempt can fail;
  /// failed attempts are retried under the ARQ policy and alerts that
  /// exhaust every attempt are counted in `alerts_delivery_failed`.
  void submit_alert(sim::NodeId reporter, sim::NodeId target,
                    bool collusion_alert);

  /// One alert-transport delivery attempt (attempt 0 is the original).
  /// `nonce` identifies the alert across retries, so a duplicated copy can
  /// never double-count at the base station.
  void deliver_alert_attempt(sim::NodeId reporter, sim::NodeId target,
                             std::uint64_t nonce, std::size_t attempt);

  /// Books an alert the base station has counted at time `at`: an accepted
  /// one observes its target's counter in bs.alert_counter, and one that
  /// revoked also appends to revocation_times. The ingest commit hook and
  /// the pipeline-off delivery path both book through here.
  void record_committed(sim::NodeId target,
                        revocation::AlertDisposition disposition,
                        sim::SimTime at);

  /// Measured distance + observed RTT for one received beacon reply.
  struct SignalMeasurement {
    double distance_ft = 0.0;
    double rtt_cycles = 0.0;
    /// Ground-truth distance to the radiating position — measured minus
    /// this is the ranging residual the metrics histogram tracks.
    double physical_distance_ft = 0.0;
  };
  /// `rtt_skew_cycles` is the clock-drift-induced RTT measurement error of
  /// this receiver/sender pair (0 with drift disabled); callers compute it
  /// via FaultInjector::rtt_skew_cycles with their *physical* node id.
  SignalMeasurement measure(const sim::Delivery& delivery,
                            const sim::BeaconReplyPayload& payload,
                            const util::Vec2& receiver_position,
                            util::Rng& node_rng,
                            double rtt_skew_cycles = 0.0) const;
};

/// One beacon request in flight: the beacon asked, the ID the request went
/// out under (a detecting ID for a probe, the node's own for a query), and
/// the retransmissions used so far.
struct Request {
  sim::NodeId target = 0;
  sim::NodeId from = 0;
  std::size_t attempt = 0;
};

/// The requests a node has in flight, by nonce. A node has under ten
/// outstanding at a time (5 ms stagger, ~34 ms round trip), so a linear
/// scan finds one, and removal moves the last entry into the hole. Nothing
/// reads the order.
class PendingTable {
 public:
  explicit PendingTable(std::pmr::memory_resource* memory)
      : nonces_(memory), requests_(memory) {}

  void reserve(std::size_t n) {
    nonces_.reserve(n);
    requests_.reserve(n);
  }
  void add(std::uint64_t nonce, const Request& request) {
    nonces_.push_back(nonce);
    requests_.push_back(request);
  }
  /// The request sent under `nonce`, or nullptr.
  const Request* find(std::uint64_t nonce) const {
    const auto it = std::find(nonces_.begin(), nonces_.end(), nonce);
    if (it == nonces_.end()) return nullptr;
    return &requests_[static_cast<std::size_t>(it - nonces_.begin())];
  }
  /// Removes a request find() returned.
  void erase(const Request* request) {
    const auto i = static_cast<std::size_t>(request - requests_.data());
    nonces_[i] = nonces_.back();
    requests_[i] = requests_.back();
    nonces_.pop_back();
    requests_.pop_back();
  }
  void clear() {
    nonces_.clear();
    requests_.clear();
  }

 private:
  std::pmr::vector<std::uint64_t> nonces_;
  std::pmr::vector<Request> requests_;
};

/// The counters and trace names of one kind of request (nodes.cpp).
struct RequestKind;

/// The requesting half of detecting beacons and sensors. A detecting
/// beacon probes a target with an ordinary beacon request sent from one of
/// its detecting IDs (paper §2.1), so a probe and a sensor's query are one
/// exchange, and a malicious beacon cannot tell them apart. This layer
/// owns the requests in flight and runs that exchange once for both: the
/// nonce, the send, the ARQ timeout and retransmission, and the reply
/// match. Each node keeps only what a matched reply means to it.
class Requester : public sim::Node {
 protected:
  Requester(sim::NodeId id, util::Vec2 position, double range_ft,
            SystemContext& ctx, const RequestKind& kind,
            std::uint64_t rng_salt);

  /// Sends `request` from `request.from` under a fresh nonce and keeps it
  /// in flight. With ARQ on, a request left unanswered at its timeout is
  /// retransmitted under another fresh nonce, up to max_retries, and then
  /// given up.
  void send_request(const Request& request, bool is_retransmission);

  /// A verified reply and the request it answers.
  struct Answer {
    Request request;
    sim::BeaconReplyPayload reply;
  };
  /// Takes the request `delivery` answers out of flight. nullopt for a
  /// forged reply (a MAC failure), an unknown nonce (a stale or duplicate
  /// copy: the first one wins) or a reply from a beacon other than the
  /// one asked.
  std::optional<Answer> match_reply(const sim::Delivery& delivery);

  SystemContext& ctx_;
  PendingTable pending_;
  util::Rng rng_;

 private:
  void on_timeout(std::uint64_t nonce);

  const RequestKind& kind_;
};

/// A benign beacon node: answers beacon requests truthfully and probes the
/// beacons around it through its m detecting IDs (paper §2.1).
///
/// Crash-recovery semantics: pending probes and the reported-targets set
/// live in volatile RAM, so a crash loses them. A reboot inside the probe
/// phase restarts the probe schedule from scratch; the base station's nonce
/// dedup keeps re-transported alert copies idempotent, while a genuinely
/// re-detected alert after reboot counts as fresh evidence.
class BeaconNode final : public Requester {
 public:
  BeaconNode(sim::NodeId id, util::Vec2 position, double range_ft,
             SystemContext& ctx, std::vector<sim::NodeId> detecting_ids);

  bool is_beacon() const override { return true; }
  const std::vector<sim::NodeId>& detecting_ids() const {
    return detecting_ids_;
  }

  /// Beacons this node will probe (set by the system from connectivity).
  void set_probe_targets(std::vector<sim::NodeId> targets);

  void start() override;
  void on_message(const sim::Delivery& delivery) override;
  void on_crash(sim::SimTime now) override;
  void on_reboot(sim::SimTime now, sim::SimTime downtime) override;

  std::size_t alerts_reported() const { return reported_.size(); }

 private:
  void handle_request(const sim::Delivery& delivery);
  void handle_probe_reply(const sim::Delivery& delivery);
  /// (Re)schedules one probe per (target, detecting id), staggered from
  /// max(now, probe_phase_start) — start() and post-reboot restarts share it.
  void schedule_probes();

  std::vector<sim::NodeId> detecting_ids_;
  std::vector<sim::NodeId> probe_targets_;
  std::unordered_set<sim::NodeId> reported_;  // one alert per target
};

/// A compromised beacon node following the (p_n, p_w, p_l) strategy. It
/// never probes or reports honest alerts; collusion alerts are scheduled by
/// the system from the collusion plan.
class MaliciousBeaconNode final : public sim::Node {
 public:
  MaliciousBeaconNode(sim::NodeId id, util::Vec2 position, double range_ft,
                      SystemContext& ctx,
                      attack::MaliciousBeaconStrategy strategy);

  bool is_beacon() const override { return true; }
  const attack::MaliciousBeaconStrategy& strategy() const { return strategy_; }

  void on_message(const sim::Delivery& delivery) override;

 private:
  SystemContext& ctx_;
  attack::MaliciousBeaconStrategy strategy_;
  util::Rng rng_;
};

/// A non-beacon sensor: requests beacon signals from the beacons around it,
/// filters them (§2.2 pipelines), drops revoked beacons, and multilaterates.
///
/// Crash-recovery semantics: pending queries and already-accepted location
/// references are volatile; a reboot inside the sensor phase re-queries
/// every target from scratch. A sensor that is down when finalize() fires
/// counts as unlocalized.
class SensorNode final : public Requester {
 public:
  SensorNode(sim::NodeId id, util::Vec2 position, double range_ft,
             SystemContext& ctx);

  /// Beacons this sensor will query (set by the system from connectivity).
  void set_query_targets(std::vector<sim::NodeId> targets);

  void start() override;
  void on_message(const sim::Delivery& delivery) override;
  void on_crash(sim::SimTime now) override;
  void on_reboot(sim::SimTime now, sim::SimTime downtime) override;

  /// Called by the system after the sensor phase: applies revocations,
  /// localizes, and records metrics.
  void finalize();

  const std::optional<localization::FallbackResult>& result() const {
    return result_;
  }

 private:
  struct AcceptedReference {
    localization::LocationReference ref;
    bool effective_malicious = false;  // ground-truth label
  };

  /// (Re)schedules one query per target, staggered from
  /// max(now, sensor_phase_start) — start() and post-reboot restarts.
  void schedule_queries();

  std::vector<sim::NodeId> query_targets_;
  std::pmr::vector<AcceptedReference> accepted_;
  std::optional<localization::FallbackResult> result_;
};

}  // namespace sld::core
