// Primary/standby base-station pair with WAL-backed failover.
//
// Availability model: the primary emits heartbeats every
// `heartbeat_interval_ns`; an outage window silences them, and the standby
// promotes itself once `takeover_timeout_ns` has passed since the last
// heartbeat it saw. Promotion bumps the cluster *epoch*, which is stamped
// into every alert ack — when the old primary later returns (restored from
// the durable store) it observes the higher epoch in the ack stream and
// fences itself instead of processing alerts, so a split brain cannot
// double-count evidence. All transition times are pure functions of the
// configured outage windows, so trials stay deterministic.
//
// State reconciliation: the active station appends every accepted alert to
// the shared DurableStore; on takeover (or primary restart) the successor
// rebuilds from snapshot + WAL-tail replay. Alerts accepted but not yet
// flushed when the active station crashes are lost — bounded by the fsync
// interval — and alerts that never got an ack are re-sent by the reporters'
// ARQ, which the nonce dedup makes idempotent.
//
// A default FailoverConfig (no standby, no durability, no outages) is a
// zero-cost pass-through to a single BaseStation: no transitions exist and
// nothing extra is scheduled or drawn, keeping fault-free runs bit-for-bit
// identical to the seed.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "revocation/base_station.hpp"
#include "revocation/durable_store.hpp"
#include "sim/message.hpp"
#include "sim/time.hpp"

namespace sld::revocation {

/// The primary base station is dead (crashed, unreachable) in [start, end).
struct OutageWindow {
  sim::SimTime start = 0;
  sim::SimTime end = 0;
};

struct FailoverConfig {
  /// Whether a standby station exists and may take over.
  bool standby_enabled = false;
  /// Primary heartbeat period (first heartbeat at t = 0).
  sim::SimTime heartbeat_interval_ns = 500 * sim::kMillisecond;
  /// The standby promotes itself this long after the last heartbeat it saw.
  sim::SimTime takeover_timeout_ns = 2 * sim::kSecond;
  /// Persistence layer shared by both stations.
  DurableConfig durable;
  /// Scheduled primary outages (sorted, non-overlapping).
  std::vector<OutageWindow> primary_outages;

  /// False guarantees the cluster is a pass-through single station with no
  /// transitions.
  bool any_enabled() const {
    return standby_enabled || durable.enabled || !primary_outages.empty();
  }
};

struct ClusterStats {
  std::uint64_t failovers = 0;
  /// Old-primary returns fenced off by a higher epoch.
  std::uint64_t fences = 0;
  /// Primary restarts that resumed service (no standby had taken over).
  std::uint64_t restarts = 0;
  /// Crashes of the *active* station (volatile state lost). Outages that
  /// only hit an already-fenced primary do not count.
  std::uint64_t active_crashes = 0;
};

class BaseStationCluster {
 public:
  BaseStationCluster(RevocationConfig revocation, FailoverConfig failover);

  const FailoverConfig& failover_config() const { return failover_; }

  /// Installs the tracer on the cluster (bs.failover / bs.snapshot events)
  /// and the active stations (bs.alert / bs.revoke).
  void set_tracer(obs::Tracer tracer);

  /// Optional recovery-latency histogram (milliseconds): takeover delays
  /// and primary restart downtimes are observed into it.
  void set_recovery_histogram(obs::Histogram* hist) { recovery_hist_ = hist; }

  /// Applies every availability transition with time <= now. Idempotent;
  /// callers may advance as coarsely as they like, but never backwards.
  void advance(sim::SimTime now);

  /// True if an up-and-running station is accepting alerts at `now`.
  bool available(sim::SimTime now);

  /// Like available() but without advancing time — for callers that have
  /// already advanced the cluster to `now` in this step.
  bool in_service() const { return !service_down_; }

  /// Routes one alert to the active station and journals it if accepted.
  /// Precondition: available(now). `durable = false` skips the WAL append
  /// — the ingest pipeline's degraded mode, where the caller owns the
  /// record's fate until it is journal()ed or lost.
  AlertDisposition process_alert(sim::SimTime now, sim::NodeId reporter,
                                 sim::NodeId target, std::uint64_t nonce,
                                 bool durable = true);

  /// Appends one previously-deferred accepted record (with its original
  /// accept time) to the WAL (degraded mode recovery). The record must
  /// have been accepted by the active station via
  /// process_alert(..., durable = false).
  void journal(const WalRecord& record);

  /// Registers the deployment's beacon roster on every station and on
  /// the WAL (so restored stations get it back). Config-derived; no-op
  /// state-wise while the lifecycle is disabled.
  void set_beacon_roster(
      const std::vector<std::pair<sim::NodeId, util::Vec2>>& roster);

  /// End-of-trial lifecycle settle on the authority (see
  /// BaseStation::settle). No-op while the lifecycle is disabled.
  void settle(sim::SimTime now) { stations_[active_].settle(now); }

  /// Accounts a deferred record that a crash destroyed before journal().
  void note_deferred_lost(const AlertKey& record) { wal_.note_lost(record); }

  /// Closes/opens the WAL's snapshot-compaction gate (see
  /// DurableStore::set_snapshot_gate). Held closed by the ingest pipeline
  /// whenever deferred records are outstanding, so a snapshot never
  /// captures station state the log does not yet cover.
  void set_snapshot_gate(bool open) { wal_.set_snapshot_gate(open); }

  /// The station whose word currently counts (reads: revocation list,
  /// counters, stats). During an outage with no promoted standby this is
  /// the crashed primary's durable state — what a restart would recover.
  const BaseStation& authority() const { return stations_[active_]; }

  /// Current failover epoch; stamped into alert acks. Starts at 1.
  std::uint32_t epoch() const { return epoch_; }

  const DurableStore& wal() const { return wal_; }
  const ClusterStats& stats() const { return cluster_stats_; }

  /// Distinct alerts accepted by any station over the cluster's lifetime
  /// (live path only, replays excluded). The chaos convergence oracles
  /// compare this, minus the WAL's lost records, against the authority's
  /// counters.
  std::uint32_t accepted_distinct(sim::NodeId target) const;
  const std::unordered_map<sim::NodeId, std::uint32_t>& accepted_by_target()
      const {
    return accepted_;
  }

  // Read-throughs to the authority, for call-site convenience.
  bool is_revoked(sim::NodeId beacon) const {
    return authority().is_revoked(beacon);
  }
  std::uint32_t alert_counter(sim::NodeId beacon) const {
    return authority().alert_counter(beacon);
  }
  std::uint32_t report_counter(sim::NodeId beacon) const {
    return authority().report_counter(beacon);
  }
  bool is_quarantined(sim::NodeId beacon, sim::SimTime now) const {
    return authority().is_quarantined(beacon, now);
  }
  /// Usable for localization: neither revoked nor quarantined.
  bool usable(sim::NodeId beacon, sim::SimTime now) const {
    return authority().usable(beacon, now);
  }

  /// Availability transitions, precomputed at construction (exposed for
  /// tests and for scheduling trace-accurate transition events).
  struct Transition {
    enum class Kind { kPrimaryDown, kTakeover, kPrimaryBack };
    sim::SimTime t = 0;
    Kind kind = Kind::kPrimaryDown;
    /// The outage window this transition belongs to.
    std::size_t outage = 0;
  };
  const std::vector<Transition>& transitions() const { return transitions_; }

 private:
  void apply(const Transition& tr);

  RevocationConfig revocation_;
  FailoverConfig failover_;
  obs::Tracer trace_;
  obs::Histogram* recovery_hist_ = nullptr;
  /// stations_[0] is the primary, stations_[1] the standby.
  std::vector<BaseStation> stations_;
  std::size_t active_ = 0;
  bool service_down_ = false;
  std::uint32_t epoch_ = 1;
  DurableStore wal_;
  std::vector<Transition> transitions_;
  std::size_t next_transition_ = 0;
  sim::SimTime last_advance_ = 0;
  std::unordered_map<sim::NodeId, std::uint32_t> accepted_;
  ClusterStats cluster_stats_;
};

}  // namespace sld::revocation
