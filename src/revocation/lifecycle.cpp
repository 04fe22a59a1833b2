#include "revocation/lifecycle.hpp"

#include <algorithm>
#include <cmath>

#include "check/invariant.hpp"

namespace sld::revocation {

const char* lifecycle_phase_name(LifecyclePhase phase) {
  switch (phase) {
    case LifecyclePhase::kClear:
      return "clear";
    case LifecyclePhase::kSuspected:
      return "suspected";
    case LifecyclePhase::kQuarantined:
      return "quarantined";
    case LifecyclePhase::kRevoked:
      return "revoked";
    case LifecyclePhase::kExonerated:
      return "exonerated";
  }
  return "unknown";
}

double decay_factor(sim::SimTime elapsed, sim::SimTime half_life) {
  if (elapsed <= 0 || half_life <= 0) return 1.0;
  const sim::SimTime k = elapsed / half_life;
  // Past ~1074 half-lives even a subnormal underflows to exactly zero.
  if (k >= 1074) return 0.0;
  const double f = static_cast<double>(elapsed % half_life) /
                   static_cast<double>(half_life);
  // 2^f = e^(f ln 2), f in [0, 1): truncated Taylor with all-positive
  // coefficients, so p is strictly increasing in f and p(ln 2) < 2 —
  // 1/p(f ln 2) decreases within a segment and lands just above 0.5 at
  // the right edge, keeping the piecewise value monotone non-increasing
  // across half-life boundaries.
  const double y = f * 0.6931471805599453;
  double term = 1.0;
  double p = 1.0;
  for (int i = 1; i <= 12; ++i) {
    term *= y / static_cast<double>(i);
    p += term;
  }
  return std::ldexp(1.0 / p, -static_cast<int>(k));
}

LifecycleTracker::LifecycleTracker(const LifecycleConfig& config,
                                   double quarantine_threshold)
    : config_(config), quarantine_threshold_(quarantine_threshold) {}

void LifecycleTracker::register_beacon(sim::NodeId id, util::Vec2 position) {
  const auto [it, inserted] = positions_.try_emplace(id, position);
  if (inserted)
    roster_order_.push_back(id);
  else
    it->second = position;
}

BeaconLifecycleState& LifecycleTracker::touch(sim::NodeId beacon) {
  const auto [it, inserted] = states_.try_emplace(beacon);
  if (inserted) state_order_.push_back(beacon);
  return it->second;
}

std::uint32_t LifecycleTracker::independent_witnesses(
    const BeaconLifecycleState& st, const util::Vec2& target_pos) const {
  std::vector<util::Vec2> kept;
  for (const sim::NodeId reporter : st.reporters) {
    const auto pos_it = positions_.find(reporter);
    if (pos_it == positions_.end()) continue;  // unknown vantage: no weight
    const util::Vec2& pos = pos_it->second;
    if (util::distance(pos, target_pos) > config_.plausible_range_ft)
      continue;  // too far to have probed the target
    bool independent = true;
    for (const util::Vec2& w : kept) {
      if (util::distance(pos, w) < config_.independence_min_ft) {
        independent = false;
        break;
      }
    }
    if (independent) kept.push_back(pos);
    if (kept.size() >= config_.corroboration_k) break;
  }
  return static_cast<std::uint32_t>(kept.size());
}

bool LifecycleTracker::cell_census(sim::NodeId beacon, sim::SimTime now,
                                   std::int64_t* cell_x, std::int64_t* cell_y,
                                   std::uint32_t* usable) const {
  const auto pos_it = positions_.find(beacon);
  if (pos_it == positions_.end()) return false;
  const double cell = config_.cell_ft > 0 ? config_.cell_ft : 1.0;
  const auto cx = static_cast<std::int64_t>(std::floor(pos_it->second.x / cell));
  const auto cy = static_cast<std::int64_t>(std::floor(pos_it->second.y / cell));
  std::uint32_t count = 0;
  for (const sim::NodeId other : roster_order_) {
    if (other == beacon) continue;
    const util::Vec2& p = positions_.at(other);
    if (static_cast<std::int64_t>(std::floor(p.x / cell)) != cx ||
        static_cast<std::int64_t>(std::floor(p.y / cell)) != cy)
      continue;
    if (this->usable(other, now)) ++count;
  }
  *cell_x = cx;
  *cell_y = cy;
  *usable = count;
  return true;
}

std::vector<LifecycleTracker::CellCensus> LifecycleTracker::census_all(
    sim::SimTime now) const {
  const double cell = config_.cell_ft > 0 ? config_.cell_ft : 1.0;
  std::vector<CellCensus> cells;
  for (const sim::NodeId id : roster_order_) {
    const util::Vec2& p = positions_.at(id);
    const auto cx = static_cast<std::int64_t>(std::floor(p.x / cell));
    const auto cy = static_cast<std::int64_t>(std::floor(p.y / cell));
    CellCensus* entry = nullptr;
    for (CellCensus& c : cells) {
      if (c.cell_x == cx && c.cell_y == cy) {
        entry = &c;
        break;
      }
    }
    if (entry == nullptr) {
      cells.push_back(CellCensus{cx, cy, 0, 0});
      entry = &cells.back();
    }
    ++entry->beacons;
    if (usable(id, now)) ++entry->usable;
  }
  return cells;
}

std::uint32_t LifecycleTracker::min_usable(sim::SimTime now) const {
  const std::vector<CellCensus> cells = census_all(now);
  std::uint32_t least = cells.empty() ? 0 : cells.front().usable;
  for (const CellCensus& c : cells) least = std::min(least, c.usable);
  return least;
}

LifecycleOutcome LifecycleTracker::observe(sim::NodeId reporter,
                                           sim::NodeId target,
                                           sim::SimTime now) {
  LifecycleOutcome out;
  BeaconLifecycleState& st = touch(target);
  SLD_INVARIANT(now >= st.last_update,
                "lifecycle time monotonicity: target " << target << " at "
                    << now << " after " << st.last_update);

  // Decay to now, then materialize any exoneration the decay implies
  // *before* the new alert lands (between alerts evidence only falls, so
  // checking at alert time is equivalent to checking continuously).
  st.evidence *= decay_factor(now - st.last_update, config_.half_life_ns);
  st.last_update = now;
  if (st.phase == LifecyclePhase::kQuarantined &&
      st.evidence < config_.clear_threshold) {
    st.phase = LifecyclePhase::kExonerated;
    st.reporters.clear();  // re-suspicion starts from a clean slate
    out.exonerated = true;
  } else if (st.phase == LifecyclePhase::kSuspected &&
             st.evidence < config_.clear_threshold) {
    st.phase = LifecyclePhase::kClear;
    st.reporters.clear();
  }

  st.evidence += 1.0;
  bool known = false;
  for (const sim::NodeId r : st.reporters) known = known || (r == reporter);
  if (!known) st.reporters.push_back(reporter);

  if (st.phase == LifecyclePhase::kClear ||
      st.phase == LifecyclePhase::kExonerated) {
    st.phase = LifecyclePhase::kSuspected;
    out.suspected = true;
  }

  if (st.phase == LifecyclePhase::kSuspected &&
      st.evidence > quarantine_threshold_) {
    out.cell_known =
        cell_census(target, now, &out.cell_x, &out.cell_y, &out.cell_usable);
    const bool floor_ok =
        !out.cell_known || out.cell_usable >= config_.min_usable_per_cell;
    const bool escalated =
        !floor_ok && st.evidence >= config_.escalation_threshold;
    if (floor_ok || escalated) {
      st.phase = LifecyclePhase::kQuarantined;
      out.quarantined = true;
      out.escalated = escalated;
    } else {
      out.guard_refused = true;
    }
  }

  if (st.phase == LifecyclePhase::kQuarantined &&
      st.evidence >= config_.revocation_evidence_min) {
    const auto pos_it = positions_.find(target);
    if (pos_it != positions_.end() &&
        independent_witnesses(st, pos_it->second) >= config_.corroboration_k) {
      st.phase = LifecyclePhase::kRevoked;
      out.revoked = true;
    }
  }

  out.evidence = st.evidence;
  return out;
}

std::vector<std::pair<sim::NodeId, LifecycleOutcome>> LifecycleTracker::settle(
    sim::SimTime now) {
  std::vector<std::pair<sim::NodeId, LifecycleOutcome>> settled;
  for (const sim::NodeId id : state_order_) {
    BeaconLifecycleState& st = states_.at(id);
    if (st.phase != LifecyclePhase::kQuarantined) continue;
    const double decayed =
        st.evidence * decay_factor(now - st.last_update, config_.half_life_ns);
    if (decayed >= config_.clear_threshold) continue;
    st.evidence = decayed;
    st.last_update = now;
    st.phase = LifecyclePhase::kExonerated;
    st.reporters.clear();
    LifecycleOutcome out;
    out.exonerated = true;
    out.evidence = decayed;
    settled.emplace_back(id, out);
  }
  return settled;
}

double LifecycleTracker::evidence(sim::NodeId beacon, sim::SimTime now) const {
  const auto it = states_.find(beacon);
  if (it == states_.end()) return 0.0;
  const BeaconLifecycleState& st = it->second;
  return st.evidence * decay_factor(now - st.last_update, config_.half_life_ns);
}

LifecyclePhase LifecycleTracker::phase(sim::NodeId beacon,
                                       sim::SimTime now) const {
  const auto it = states_.find(beacon);
  if (it == states_.end()) return LifecyclePhase::kClear;
  const BeaconLifecycleState& st = it->second;
  if (st.phase == LifecyclePhase::kQuarantined &&
      evidence(beacon, now) < config_.clear_threshold)
    return LifecyclePhase::kExonerated;
  if (st.phase == LifecyclePhase::kSuspected &&
      evidence(beacon, now) < config_.clear_threshold)
    return LifecyclePhase::kClear;
  return st.phase;
}

bool LifecycleTracker::is_revoked(sim::NodeId beacon) const {
  const auto it = states_.find(beacon);
  return it != states_.end() && it->second.phase == LifecyclePhase::kRevoked;
}

bool LifecycleTracker::usable(sim::NodeId beacon, sim::SimTime now) const {
  const LifecyclePhase p = phase(beacon, now);
  return p != LifecyclePhase::kRevoked && p != LifecyclePhase::kQuarantined;
}

std::size_t LifecycleTracker::distinct_reporters(sim::NodeId beacon) const {
  const auto it = states_.find(beacon);
  return it == states_.end() ? 0 : it->second.reporters.size();
}

std::vector<std::pair<sim::NodeId, BeaconLifecycleState>>
LifecycleTracker::export_state() const {
  std::vector<std::pair<sim::NodeId, BeaconLifecycleState>> out;
  out.reserve(state_order_.size());
  for (const sim::NodeId id : state_order_)
    out.emplace_back(id, states_.at(id));
  return out;
}

void LifecycleTracker::import_state(
    const std::vector<std::pair<sim::NodeId, BeaconLifecycleState>>& state) {
  states_.clear();
  state_order_.clear();
  for (const auto& [id, st] : state) {
    states_.emplace(id, st);
    state_order_.push_back(id);
  }
}

}  // namespace sld::revocation
