// Sharded, bounded, overload-resilient alert ingestion in front of the
// base-station cluster.
//
// PR 5 made the base station durable and highly available; this layer
// makes it survive load. Alerts are partitioned by target across S shards
// (so one hot target cannot head-of-line-block the rest), each shard owns
// a bounded ingress queue drained through a per-alert service-time model,
// and commits ride the DurableStore's `fsync_every_records` group-commit
// cadence — the shard drain generalizes that batching across queues.
//
// In front of the queues sits the AdmissionController (admission.hpp).
// Shedding is priority-aware: an alert against an already-suspected
// target (alert counter >= suspect_after) is always admitted, even past a
// full queue; a first-sight alert arriving at a full queue is shed
// last-in-first-out (drop-tail — the newest arrival is the one dropped,
// and it was never acknowledged, so the reporter's ARQ retries it once
// the storm abates). When the admission breaker reads degraded (WAL
// stall), commits bypass the WAL and the accepted keys are parked in a
// deferred list: journaled in accept order once the breaker leaves
// degraded, or charged to the durable store's lost ledger if the active
// station crashes first — evidence is never silently dropped, only
// explicitly accounted.
//
// A disabled config (admission off, S = 1 — the default) never constructs
// queues, draws no randomness, and submit() is an exact pass-through to
// BaseStationCluster::process_alert, keeping default runs bit-for-bit
// identical to the seed.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "revocation/admission.hpp"
#include "revocation/failover.hpp"
#include "sim/message.hpp"
#include "sim/time.hpp"

namespace sld::revocation {

struct ShardConfig {
  /// Ingestion shards; alerts are partitioned by target id modulo this.
  std::uint32_t count = 1;
  /// Queued-entry bound per shard (priority-lane admits may exceed it).
  std::size_t queue_capacity = 64;
  /// Modelled per-alert commit cost; a shard's queue drains at this rate.
  sim::SimTime service_time_ns = 2 * sim::kMillisecond;
};

/// The full ingestion-path configuration carried by SystemConfig.
struct IngestConfig {
  ShardConfig shard;
  AdmissionConfig admission;

  /// False guarantees the pipeline is an exact pass-through.
  bool enabled() const { return admission.enabled || shard.count > 1; }
};

struct IngestStats {
  std::uint64_t submitted = 0;
  /// Admitted into a shard queue (including priority admits).
  std::uint64_t accepted = 0;
  std::uint64_t rate_limited = 0;
  /// First-sight alerts dropped at a full queue.
  std::uint64_t shed = 0;
  /// Repeat (reporter, target) accusations absorbed by the pair rule.
  std::uint64_t pair_duplicates = 0;
  /// Suspected-target alerts admitted past a full queue.
  std::uint64_t priority_admits = 0;
  /// Entries handed to the cluster (any disposition).
  std::uint64_t committed = 0;
  /// Commits that bypassed the WAL in degraded mode.
  std::uint64_t deferred = 0;
  /// Deferred records re-journaled after the breaker left degraded.
  std::uint64_t deferred_journaled = 0;
  /// Deferred records destroyed by an active-station crash.
  std::uint64_t deferred_lost = 0;
  /// Entries queued across a service gap and drained at takeover/restart.
  std::uint64_t reconciled = 0;
  std::uint64_t breaker_transitions = 0;
};

/// What submit() tells the transport layer.
struct IngestResult {
  enum class Kind {
    kBypass,       // pipeline disabled: disposition is the cluster's answer
    kEnqueued,     // admitted; counted when its shard commits it
    kAbsorbed,     // repeat accusation; acked but carries no new evidence
    kRateLimited,  // reporter out of tokens; not acked (ARQ will retry)
    kShed,         // queue full, first sight; not acked (ARQ will retry)
  };
  Kind kind = Kind::kBypass;
  AlertDisposition disposition = AlertDisposition::kAccepted;
};

class IngestPipeline {
 public:
  /// Instruments the pipeline writes as it runs, all optional (null =
  /// unregistered). Its counts are not here: they live in stats().
  struct Instruments {
    obs::Histogram* latency_ms = nullptr;
    std::vector<obs::Gauge*> queue_depth;  // one per shard
    /// Numeric BreakerState (0 closed, 1 shedding, 2 degraded,
    /// 3 recovering) — the telemetry timeline's breaker track.
    obs::Gauge* breaker_state = nullptr;
  };

  /// Invoked at every commit with the cluster's disposition and the
  /// entry's enqueue/commit model times (the caller records revocation
  /// latencies and counter histograms from here).
  using CommitHook =
      std::function<void(sim::NodeId reporter, sim::NodeId target,
                         AlertDisposition disposition, sim::SimTime enqueued_at,
                         sim::SimTime committed_at)>;

  IngestPipeline(IngestConfig config, BaseStationCluster& cluster);
  // Registered instruments read through this pipeline's address.
  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  const IngestConfig& config() const { return config_; }
  bool enabled() const { return config_.enabled(); }

  void set_tracer(obs::Tracer tracer) { trace_ = std::move(tracer); }
  void set_instruments(Instruments instruments);
  /// Registers the bs.ingest.* instruments in `reg` and attaches them; the
  /// four counts read through stats(). Call only for an enabled pipeline
  /// (default snapshots stay the seed's); the pipeline must stay in place.
  void register_instruments(obs::MetricsRegistry& reg);
  void set_commit_hook(CommitHook hook) { commit_hook_ = std::move(hook); }

  /// One alert arriving from the transport. Advances the pipeline to
  /// `now` first, so due commits always precede the new admission.
  IngestResult submit(sim::SimTime now, sim::NodeId reporter,
                      sim::NodeId target, std::uint64_t nonce);

  /// Applies cluster transitions, breaker moves and due commits up to
  /// `now`. Call at transition times and before reading revocations.
  void advance(sim::SimTime now);

  /// End of trial: advances to `now` and force-commits everything still
  /// queued (station permitting), then journals any leftover deferred
  /// records.
  void drain(sim::SimTime now);

  const IngestStats& stats() const { return stats_; }
  BreakerState breaker_state(sim::SimTime now) const {
    return admission_.state(now);
  }
  const AdmissionController& admission() const { return admission_; }
  std::size_t queue_depth() const;
  std::size_t queue_depth(std::size_t shard) const {
    return shards_[shard].queue.size();
  }
  std::size_t deferred_outstanding() const { return deferred_.size(); }

 private:
  struct Entry {
    AlertKey key;
    sim::SimTime enqueued_at = 0;
    sim::SimTime commit_at = 0;
    bool first_sight = true;
  };
  struct Shard {
    std::deque<Entry> queue;
    sim::SimTime busy_until = 0;
  };

  void on_transitions();
  void breaker_step(sim::SimTime now);
  void journal_deferred();
  void commit_due(sim::SimTime now, bool force);
  void commit_one(std::size_t shard_index, sim::SimTime now, bool degraded,
                  bool reconciling);
  void update_gauges();
  void trace_shed(const char* reason, sim::NodeId reporter, sim::NodeId target,
                  std::size_t shard_index);

  IngestConfig config_;
  BaseStationCluster& cluster_;
  AdmissionController admission_;
  obs::Tracer trace_;
  Instruments instruments_;
  CommitHook commit_hook_;
  std::vector<Shard> shards_;
  /// Accepted-but-not-journaled records (key + accept time), in accept
  /// order (degraded mode).
  std::vector<WalRecord> deferred_;
  BreakerState last_breaker_ = BreakerState::kClosed;
  /// Commits found the station down; the next in-service advance drains
  /// the backlog and counts it as reconciled.
  bool blocked_ = false;
  /// The advance time at which service came back for a blocked backlog —
  /// the earliest moment those entries could really have committed.
  sim::SimTime service_resumed_ = 0;
  std::uint64_t seen_crashes_ = 0;
  IngestStats stats_;
};

}  // namespace sld::revocation
