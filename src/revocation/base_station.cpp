#include "revocation/base_station.hpp"

#include "check/invariant.hpp"
#include "obs/memstats.hpp"

namespace sld::revocation {

BaseStation::BaseStation(RevocationConfig config)
    : config_(config),
      seen_(config.dedup_window),
      lifecycle_(config.lifecycle,
                 static_cast<double>(config.alert_threshold)) {}

void BaseStation::register_beacon(sim::NodeId id, util::Vec2 position) {
  if (config_.lifecycle.enabled) lifecycle_.register_beacon(id, position);
}

bool DedupWindow::insert(const AlertKey& key) {
  if (!set_.insert(key).second) return false;
  order_.push_back(key);
  if (capacity_ != 0 && order_.size() > capacity_) {
    set_.erase(order_.front());
    order_.pop_front();
    ++evictions_;
  }
  return true;
}

std::vector<AlertKey> DedupWindow::snapshot() const {
  return std::vector<AlertKey>(order_.begin(), order_.end());
}

void DedupWindow::restore(const std::vector<AlertKey>& keys) {
  order_.clear();
  set_.clear();
  for (const AlertKey& k : keys) insert(k);
}

namespace {
const char* disposition_name(AlertDisposition d) {
  switch (d) {
    case AlertDisposition::kAccepted:
      return "accepted";
    case AlertDisposition::kAcceptedAndRevoked:
      return "accepted_revoked";
    case AlertDisposition::kIgnoredReporterQuota:
      return "ignored_quota";
    case AlertDisposition::kIgnoredTargetRevoked:
      return "ignored_revoked";
    case AlertDisposition::kIgnoredDuplicate:
      return "ignored_duplicate";
  }
  return "unknown";
}

/// High bit distinguishes internally stamped nonces from caller-assigned
/// ones (SystemContext uses a small counter), so the two can never collide.
constexpr std::uint64_t kAutoNonceBit = 1ULL << 63;
}  // namespace

AlertDisposition BaseStation::process_alert(sim::NodeId reporter,
                                            sim::NodeId target) {
  return process_alert(reporter, target, kAutoNonceBit | ++auto_nonce_);
}

AlertDisposition BaseStation::process_alert(sim::NodeId reporter,
                                            sim::NodeId target,
                                            std::uint64_t nonce) {
  return process_alert(reporter, target, nonce, sim::SimTime{0});
}

AlertDisposition BaseStation::process_alert(sim::NodeId reporter,
                                            sim::NodeId target,
                                            std::uint64_t nonce,
                                            sim::SimTime now) {
  SLD_MEM_SCOPE("revocation");
  const std::uint32_t alerts_before = alert_counter(target);
  const bool revoked_before = revoked_.contains(target);
  LifecycleOutcome lifecycle_outcome;
  const AlertDisposition disposition =
      process_alert_impl(reporter, target, nonce, now, &lifecycle_outcome);
  SLD_INVARIANT(stats_.alerts_received ==
                    stats_.alerts_accepted + stats_.alerts_ignored_quota +
                        stats_.alerts_ignored_revoked +
                        stats_.alerts_ignored_duplicate,
                "alert accounting: received=" << stats_.alerts_received
                    << " accepted=" << stats_.alerts_accepted << " quota="
                    << stats_.alerts_ignored_quota << " revoked_ignored="
                    << stats_.alerts_ignored_revoked << " duplicate="
                    << stats_.alerts_ignored_duplicate);
  SLD_INVARIANT(stats_.revocations == revoked_.size() &&
                    revoked_.size() == revocation_order_.size(),
                "revocation bookkeeping: stat=" << stats_.revocations
                    << " set=" << revoked_.size()
                    << " order=" << revocation_order_.size());
  SLD_INVARIANT(alert_counter(target) >= alerts_before,
                "alert counter monotonicity: target " << target << " fell from "
                    << alerts_before << " to " << alert_counter(target));
  // With the lifecycle enabled, revocation is driven by decayed evidence
  // + corroboration, not the raw counter — the iff only holds for the
  // paper's permanent scheme.
  SLD_INVARIANT(config_.lifecycle.enabled ||
                    revoked_.contains(target) ==
                        (alert_counter(target) > config_.alert_threshold),
                "revocation iff counter > tau2: target " << target
                    << " counter=" << alert_counter(target) << " tau2="
                    << config_.alert_threshold
                    << " revoked=" << revoked_.contains(target));
  SLD_INVARIANT(!config_.lifecycle.enabled ||
                    lifecycle_.is_revoked(target) == revoked_.contains(target),
                "lifecycle/revoked-set agreement: target " << target
                    << " tracker=" << lifecycle_.is_revoked(target)
                    << " set=" << revoked_.contains(target));
  SLD_INVARIANT(!(revoked_before &&
                  disposition == AlertDisposition::kAcceptedAndRevoked),
                "no double revocation: target " << target
                    << " was already revoked");
  if (trace_.on()) {
    trace_.emit(trace_.event("bs.alert")
                    .f("reporter", reporter)
                    .f("target", target)
                    .f("disposition", disposition_name(disposition))
                    .f("alert_counter", alert_counter(target))
                    .f("report_counter", report_counter(reporter)));
    emit_lifecycle_trace(target, lifecycle_outcome);
    if (disposition == AlertDisposition::kAcceptedAndRevoked) {
      trace_.emit(trace_.event("bs.revoke")
                      .f("target", target)
                      .f("alert_counter", alert_counter(target))
                      .f("threshold", config_.alert_threshold));
    }
  }
  return disposition;
}

void BaseStation::emit_lifecycle_trace(sim::NodeId target,
                                       const LifecycleOutcome& outcome) {
  if (outcome.exonerated) {
    trace_.emit(trace_.event("bs.exonerate")
                    .f("target", target)
                    .f("evidence", outcome.evidence));
  }
  if (outcome.quarantined || outcome.guard_refused) {
    if (outcome.cell_known) {
      trace_.emit(trace_.event("coverage.usable_beacons")
                      .f("cx", outcome.cell_x)
                      .f("cy", outcome.cell_y)
                      .f("usable", outcome.cell_usable));
    }
    if (outcome.escalated) {
      trace_.emit(trace_.event("bs.escalate")
                      .f("target", target)
                      .f("evidence", outcome.evidence)
                      .f("usable", outcome.cell_usable));
    }
    if (outcome.quarantined) {
      trace_.emit(trace_.event("bs.quarantine")
                      .f("target", target)
                      .f("evidence", outcome.evidence));
    }
  }
}

void BaseStation::settle(sim::SimTime now) {
  if (!config_.lifecycle.enabled) return;
  for (const auto& [id, outcome] : lifecycle_.settle(now)) {
    ++stats_.exonerations;
    if (trace_.on()) {
      trace_.emit(trace_.event("bs.exonerate")
                      .f("target", id)
                      .f("evidence", outcome.evidence));
    }
  }
  if (trace_.on()) {
    for (const auto& cell : lifecycle_.census_all(now)) {
      trace_.emit(trace_.event("coverage.usable_beacons")
                      .f("cx", cell.cell_x)
                      .f("cy", cell.cell_y)
                      .f("usable", cell.usable));
    }
  }
}

LifecyclePhase BaseStation::lifecycle_phase(sim::NodeId beacon,
                                            sim::SimTime now) const {
  if (config_.lifecycle.enabled) return lifecycle_.phase(beacon, now);
  return revoked_.contains(beacon) ? LifecyclePhase::kRevoked
                                   : LifecyclePhase::kClear;
}

AlertDisposition BaseStation::process_alert_impl(
    sim::NodeId reporter, sim::NodeId target, std::uint64_t nonce,
    sim::SimTime now, LifecycleOutcome* lifecycle_outcome) {
  ++stats_.alerts_received;

  // Idempotence: a (reporter, target, nonce) key is counted at most once
  // within the dedup window, whatever the transport did to the packet in
  // between.
  const std::uint64_t evictions_before = seen_.evictions();
  if (!seen_.insert(AlertKey{reporter, target, nonce})) {
    ++stats_.alerts_ignored_duplicate;
    return AlertDisposition::kIgnoredDuplicate;
  }
  stats_.dedup_evictions += seen_.evictions() - evictions_before;

  // Paper: accept iff the reporter's report counter has not exceeded tau1
  // and the target is not revoked. Note the reporter being revoked does
  // NOT disqualify its alerts.
  if (revoked_.contains(target)) {
    ++stats_.alerts_ignored_revoked;
    return AlertDisposition::kIgnoredTargetRevoked;
  }
  auto& reports = report_counter_[reporter];
  if (reports > config_.report_quota) {
    ++stats_.alerts_ignored_quota;
    return AlertDisposition::kIgnoredReporterQuota;
  }

  ++reports;
  auto& alerts = alert_counter_[target];
  ++alerts;
  ++stats_.alerts_accepted;

  if (!config_.lifecycle.enabled) {
    if (alerts > config_.alert_threshold) {
      revoked_.insert(target);
      revocation_order_.push_back(target);
      ++stats_.revocations;
      return AlertDisposition::kAcceptedAndRevoked;
    }
    return AlertDisposition::kAccepted;
  }

  // Lifecycle path: the raw counter above stays untouched (it still
  // feeds suspiciousness-priority heuristics); the decayed evidence
  // decides the transitions.
  *lifecycle_outcome = lifecycle_.observe(reporter, target, now);
  if (lifecycle_outcome->exonerated) ++stats_.exonerations;
  if (lifecycle_outcome->guard_refused) ++stats_.guard_refusals;
  if (lifecycle_outcome->quarantined) {
    ++stats_.quarantines;
    if (lifecycle_outcome->escalated) ++stats_.escalations;
    if (lifecycle_outcome->cell_known &&
        lifecycle_outcome->cell_usable < config_.lifecycle.min_usable_per_cell &&
        !lifecycle_outcome->escalated)
      ++stats_.coverage_floor_violations;
  }
  if (lifecycle_outcome->revoked) {
    revoked_.insert(target);
    revocation_order_.push_back(target);
    ++stats_.revocations;
    return AlertDisposition::kAcceptedAndRevoked;
  }
  return AlertDisposition::kAccepted;
}

std::uint32_t BaseStation::alert_counter(sim::NodeId beacon) const {
  const auto it = alert_counter_.find(beacon);
  return it == alert_counter_.end() ? 0 : it->second;
}

std::uint32_t BaseStation::report_counter(sim::NodeId beacon) const {
  const auto it = report_counter_.find(beacon);
  return it == report_counter_.end() ? 0 : it->second;
}

BaseStationState BaseStation::export_state() const {
  BaseStationState state;
  state.alert_counter = alert_counter_;
  state.report_counter = report_counter_;
  state.revocation_order = revocation_order_;
  state.seen = seen_.snapshot();
  state.auto_nonce = auto_nonce_;
  state.stats = stats_;
  state.lifecycle = lifecycle_.export_state();
  return state;
}

void BaseStation::import_state(const BaseStationState& state) {
  alert_counter_ = state.alert_counter;
  report_counter_ = state.report_counter;
  revocation_order_ = state.revocation_order;
  revoked_ = std::unordered_set<sim::NodeId>(state.revocation_order.begin(),
                                             state.revocation_order.end());
  seen_.restore(state.seen);
  auto_nonce_ = state.auto_nonce;
  stats_ = state.stats;
  lifecycle_.import_state(state.lifecycle);
}

}  // namespace sld::revocation
