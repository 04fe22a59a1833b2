#include "revocation/shard.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "check/invariant.hpp"

namespace sld::revocation {

IngestPipeline::IngestPipeline(IngestConfig config, BaseStationCluster& cluster)
    : config_(config),
      cluster_(cluster),
      admission_(config.admission,
                 cluster.failover_config().durable.stall_windows) {
  if (config_.shard.count == 0)
    throw std::invalid_argument("Ingest: shard count must be >= 1");
  if (config_.shard.queue_capacity == 0)
    throw std::invalid_argument("Ingest: queue capacity must be >= 1");
  if (config_.shard.service_time_ns < 0)
    throw std::invalid_argument("Ingest: service time must be >= 0");
  if (enabled()) shards_.resize(config_.shard.count);
}

void IngestPipeline::set_instruments(Instruments instruments) {
  instruments_ = std::move(instruments);
  // Gauges keep their last-written value, and a shared registry can carry
  // them over from a previous trial's pipeline. Sync every gauge to THIS
  // pipeline's state right away, so the first telemetry sample after trial
  // setup can never read stale queue depths or breaker state.
  update_gauges();
  if (instruments_.breaker_state != nullptr)
    instruments_.breaker_state->set(
        static_cast<double>(static_cast<int>(last_breaker_)));
}

void IngestPipeline::register_instruments(obs::MetricsRegistry& reg) {
  reg.counter("bs.ingest.accepted", [this] { return stats_.accepted; });
  reg.counter("bs.ingest.shed", [this] { return stats_.shed; });
  reg.counter("bs.ingest.rate_limited",
              [this] { return stats_.rate_limited; });
  reg.counter("bs.ingest.deferred", [this] { return stats_.deferred; });
  Instruments ins;
  ins.latency_ms = &reg.histogram("bs.ingest.latency_ms", 0.1, 60'000.0, 32,
                                  obs::HistogramScale::kLog);
  for (std::uint32_t i = 0; i < config_.shard.count; ++i) {
    ins.queue_depth.push_back(
        &reg.gauge("bs.ingest.queue_depth.s" + std::to_string(i)));
  }
  ins.breaker_state = &reg.gauge("bs.ingest.breaker_state");
  set_instruments(std::move(ins));
}

std::size_t IngestPipeline::queue_depth() const {
  std::size_t n = 0;
  for (const Shard& sh : shards_) n += sh.queue.size();
  return n;
}

void IngestPipeline::trace_shed(const char* reason, sim::NodeId reporter,
                                sim::NodeId target, std::size_t shard_index) {
  if (!trace_.on()) return;
  trace_.emit(trace_.event("bs.shed")
                  .f("reporter", reporter)
                  .f("target", target)
                  .f("reason", reason)
                  .f("shard", static_cast<std::uint64_t>(shard_index)));
}

IngestResult IngestPipeline::submit(sim::SimTime now, sim::NodeId reporter,
                                    sim::NodeId target, std::uint64_t nonce) {
  if (!enabled()) {
    IngestResult r;
    r.kind = IngestResult::Kind::kBypass;
    r.disposition = cluster_.process_alert(now, reporter, target, nonce);
    return r;
  }

  advance(now);
  ++stats_.submitted;

  switch (admission_.admit(reporter, target, now)) {
    case AdmissionController::Decision::kDuplicatePair:
      ++stats_.pair_duplicates;
      return {IngestResult::Kind::kAbsorbed, AlertDisposition::kAccepted};
    case AdmissionController::Decision::kRateLimited:
      ++stats_.rate_limited;
      trace_shed("rate_limited", reporter, target, target % shards_.size());
      return {IngestResult::Kind::kRateLimited, AlertDisposition::kAccepted};
    case AdmissionController::Decision::kAdmit:
      break;
  }

  const std::size_t shard_index = target % shards_.size();
  Shard& shard = shards_[shard_index];
  // Quarantined targets keep the never-shed priority: their corroboration
  // evidence is exactly what the lifecycle needs to resolve the case.
  const bool suspected =
      config_.admission.enabled &&
      (cluster_.alert_counter(target) >= config_.admission.suspect_after ||
       cluster_.is_quarantined(target, now));
  if (shard.queue.size() >= config_.shard.queue_capacity) {
    if (!suspected) {
      // Priority-aware LIFO shed: the newest (unacked) first-sight arrival
      // is the one dropped; its reporter's ARQ retries once load eases.
      ++stats_.shed;
      admission_.note_shed(now);
      trace_shed("queue_full", reporter, target, shard_index);
      breaker_step(now);  // the shed may have opened the shedding state
      return {IngestResult::Kind::kShed, AlertDisposition::kAccepted};
    }
    // Alerts against suspected targets are evidence the scheme must not
    // lose to load: they ride past the bound.
    ++stats_.priority_admits;
  }

  Entry entry;
  entry.key = AlertKey{reporter, target, nonce};
  entry.enqueued_at = now;
  shard.busy_until =
      std::max(shard.busy_until, now) + config_.shard.service_time_ns;
  entry.commit_at = shard.busy_until;
  entry.first_sight = !suspected;
  shard.queue.push_back(entry);
  admission_.remember_pair(reporter, target);
  ++stats_.accepted;
  update_gauges();
  return {IngestResult::Kind::kEnqueued, AlertDisposition::kAccepted};
}

void IngestPipeline::advance(sim::SimTime now) {
  cluster_.advance(now);
  if (!enabled()) return;
  on_transitions();
  breaker_step(now);
  commit_due(now, /*force=*/false);
  update_gauges();
  SLD_INVARIANT(stats_.submitted == stats_.accepted + stats_.rate_limited +
                                        stats_.shed + stats_.pair_duplicates,
                "ingest accounting: submitted="
                    << stats_.submitted << " accepted=" << stats_.accepted
                    << " rate_limited=" << stats_.rate_limited
                    << " shed=" << stats_.shed
                    << " pair_dup=" << stats_.pair_duplicates);
  SLD_INVARIANT(stats_.accepted == stats_.committed + queue_depth(),
                "ingest queue conservation: accepted="
                    << stats_.accepted << " committed=" << stats_.committed
                    << " queued=" << queue_depth());
  SLD_INVARIANT(stats_.deferred == stats_.deferred_journaled +
                                       stats_.deferred_lost + deferred_.size(),
                "deferred conservation: deferred="
                    << stats_.deferred
                    << " journaled=" << stats_.deferred_journaled
                    << " lost=" << stats_.deferred_lost
                    << " outstanding=" << deferred_.size());
}

void IngestPipeline::drain(sim::SimTime now) {
  advance(now);
  if (!enabled()) return;
  commit_due(now, /*force=*/true);
  journal_deferred();
  update_gauges();
}

void IngestPipeline::on_transitions() {
  const std::uint64_t crashes = cluster_.stats().active_crashes;
  if (crashes == seen_crashes_) return;
  seen_crashes_ = crashes;
  // The active station's volatile state died, and the deferred records
  // only existed there: charge them to the lost ledger so the counter
  // identity (counted == durable + lost) keeps holding.
  for (const WalRecord& r : deferred_) cluster_.note_deferred_lost(r.key);
  stats_.deferred_lost += deferred_.size();
  deferred_.clear();
  cluster_.set_snapshot_gate(true);
}

void IngestPipeline::breaker_step(sim::SimTime now) {
  if (!config_.admission.enabled) return;
  const BreakerState state = admission_.state(now);
  if (state != last_breaker_) {
    ++stats_.breaker_transitions;
    if (instruments_.breaker_state != nullptr)
      instruments_.breaker_state->set(
          static_cast<double>(static_cast<int>(state)));
    if (trace_.on()) {
      trace_.emit(trace_.event("bs.breaker")
                      .f("from", breaker_state_name(last_breaker_))
                      .f("to", breaker_state_name(state)));
    }
    last_breaker_ = state;
  }
  if (last_breaker_ != BreakerState::kDegraded) journal_deferred();
}

void IngestPipeline::journal_deferred() {
  if (deferred_.empty() || !cluster_.in_service()) return;
  // Deferred keys are in accept order and go in ahead of any newer
  // commit, so WAL replay order stays identical to accept order.
  // The gate stays closed across the loop: a mid-loop flush must not cut a
  // snapshot while later keys are still counted-but-unjournaled.
  for (const WalRecord& r : deferred_) cluster_.journal(r);
  stats_.deferred_journaled += deferred_.size();
  deferred_.clear();
  cluster_.set_snapshot_gate(true);
}

void IngestPipeline::commit_due(sim::SimTime now, bool force) {
  if (!cluster_.in_service()) {
    // Entries stay queued across the outage; the first in-service advance
    // drains them into the successor (the takeover reconcile).
    if (!blocked_) {
      for (const Shard& sh : shards_) {
        if (!sh.queue.empty() && sh.queue.front().commit_at <= now) {
          blocked_ = true;
          break;
        }
      }
    }
    return;
  }
  bool reconciling = false;
  if (blocked_) {
    blocked_ = false;
    service_resumed_ = now;
    reconciling = true;
  }
  const bool degraded = config_.admission.enabled &&
                        admission_.state(now) == BreakerState::kDegraded;

  std::vector<std::uint32_t> batch(shards_.size(), 0);
  for (;;) {
    // Global commit order: earliest due entry across shards, shard index
    // breaking ties — deterministic whatever the queue shapes are.
    std::size_t best = shards_.size();
    sim::SimTime best_t = std::numeric_limits<sim::SimTime>::max();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const Shard& sh = shards_[i];
      if (sh.queue.empty()) continue;
      const sim::SimTime t = sh.queue.front().commit_at;
      if (!force && t > now) continue;
      if (t < best_t) {
        best_t = t;
        best = i;
      }
    }
    if (best == shards_.size()) break;
    commit_one(best, now, degraded, reconciling);
    ++batch[best];
  }

  if (trace_.on()) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (batch[i] == 0) continue;
      trace_.emit(trace_.event("bs.shard_commit")
                      .f("shard", static_cast<std::uint64_t>(i))
                      .f("batch", batch[i])
                      .f("queue_depth", static_cast<std::uint64_t>(
                                            shards_[i].queue.size())));
    }
  }
}

void IngestPipeline::commit_one(std::size_t shard_index, sim::SimTime now,
                                bool degraded, bool reconciling) {
  Shard& shard = shards_[shard_index];
  Entry entry = shard.queue.front();
  shard.queue.pop_front();
  // The model-time moment this entry really committed: its service-model
  // slot, pushed back to the service-resume time if it sat out an outage.
  const sim::SimTime committed_at = std::max(entry.commit_at, service_resumed_);
  const AlertDisposition disposition = cluster_.process_alert(
      now, entry.key.reporter, entry.key.target, entry.key.nonce, !degraded);
  const bool counted = disposition == AlertDisposition::kAccepted ||
                       disposition == AlertDisposition::kAcceptedAndRevoked;
  if (counted && degraded) {
    // Stamped with the cluster-observe time: a later journal replay must
    // decay lifecycle evidence exactly as the live path did.
    deferred_.push_back(WalRecord{entry.key, now});
    cluster_.set_snapshot_gate(false);
    ++stats_.deferred;
  }
  ++stats_.committed;
  if (reconciling) ++stats_.reconciled;
  if (instruments_.latency_ms != nullptr) {
    instruments_.latency_ms->observe(
        static_cast<double>(committed_at - entry.enqueued_at) /
        static_cast<double>(sim::kMillisecond));
  }
  if (commit_hook_) {
    commit_hook_(entry.key.reporter, entry.key.target, disposition,
                 entry.enqueued_at, committed_at);
  }
}

void IngestPipeline::update_gauges() {
  for (std::size_t i = 0;
       i < shards_.size() && i < instruments_.queue_depth.size(); ++i) {
    if (instruments_.queue_depth[i] != nullptr)
      instruments_.queue_depth[i]->set(
          static_cast<double>(shards_[i].queue.size()));
  }
}

}  // namespace sld::revocation
