// Evidence-lifecycle revocation (the framing-resistance layer).
//
// The paper's scheme revokes a beacon permanently the moment its alert
// counter exceeds tau2 — so a colluding reporter clique that stays under
// the per-reporter tau1 budget can *frame* benign beacons, and every
// successful framing permanently shrinks localization coverage. This
// module replaces the one-way door with a per-beacon lifecycle
//
//     clear -> suspected -> quarantined -> revoked
//                  ^              |
//                  +- exonerated <+
//
// driven by *decayed* evidence rather than a raw counter:
//
//   * every accepted alert adds one unit of evidence; evidence decays
//     exponentially in sim time with a configurable half-life, so stale
//     accusations age out instead of accumulating forever;
//   * evidence > tau2 quarantines the target (reversible sequestration:
//     sensors stop using it, but its state is kept and its accusers keep
//     accruing corroboration);
//   * permanent revocation additionally requires the decayed evidence to
//     reach `revocation_evidence_min` AND >= `corroboration_k`
//     geometrically independent, range-plausible reporters — a small
//     colluder clique (each pair-deduped to one accepted alert per
//     target) can quarantine but can never permanently revoke;
//   * a quarantined beacon whose evidence decays below `clear_threshold`
//     is exonerated and returns to service (re-suspicion starts over);
//   * a *coverage guard* refuses to quarantine when doing so would drop
//     the target's deployment cell below `min_usable_per_cell` usable
//     beacons, unless the evidence has escalated past
//     `escalation_threshold` (then the quarantine proceeds and is traced
//     as `bs.escalate`).
//
// Determinism: state mutates only at alert times (plus an explicit
// end-of-trial settle), so the lifecycle is a pure function of the timed
// accepted-alert history — a WAL replay of the same (reporter, target,
// time) sequence reproduces it byte-for-byte. The decay factor uses only
// basic IEEE arithmetic (ldexp + a truncated Taylor polynomial), never
// libm exp/exp2, so every build computes bit-identical evidence.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/message.hpp"
#include "sim/time.hpp"
#include "util/geometry.hpp"

namespace sld::revocation {

struct LifecycleConfig {
  /// Master switch. Off (the default) leaves the paper's permanent
  /// revocation behaviour byte-identical to the seed.
  bool enabled = false;
  /// Evidence half-life: one accepted alert is worth 1.0 immediately and
  /// 0.5 one half-life later.
  sim::SimTime half_life_ns = 300 * sim::kSecond;
  /// Evidence below this clears a suspicion (and exonerates a
  /// quarantined beacon).
  double clear_threshold = 0.5;
  /// Permanent revocation needs >= this many geometrically independent,
  /// range-plausible distinct reporters.
  std::uint32_t corroboration_k = 3;
  /// Two reporters closer than this (feet) count as one vantage point.
  double independence_min_ft = 25.0;
  /// A reporter farther than this (feet) from the target cannot have
  /// probed it and is implausible as a witness.
  double plausible_range_ft = 150.0;
  /// Coverage guard: refuse to quarantine when fewer than this many
  /// other usable beacons remain in the target's deployment cell.
  std::uint32_t min_usable_per_cell = 1;
  /// Side length (feet) of the square deployment cells the coverage
  /// guard reasons about.
  double cell_ft = 250.0;
  /// Evidence at which a quarantine overrides the coverage guard
  /// (traced as bs.escalate).
  double escalation_threshold = 6.0;
  /// Minimum decayed evidence for permanent revocation (over and above
  /// corroboration) — keeps a K-clique below the permanent bar when
  /// admission pair-dedup limits each member to one alert per target.
  double revocation_evidence_min = 4.0;
};

enum class LifecyclePhase : std::uint8_t {
  kClear = 0,
  kSuspected = 1,
  kQuarantined = 2,
  kRevoked = 3,
  kExonerated = 4,
};

const char* lifecycle_phase_name(LifecyclePhase phase);

/// Deterministic 2^-(elapsed / half_life). Split into an exact power of
/// two (ldexp) and a fractional part approximated by 1 / p(f ln 2) with p
/// a truncated positive-coefficient Taylor series of e^x — monotone
/// non-increasing in `elapsed` (p is increasing and p(ln 2) < 2, so the
/// value steps *down* across every half-life boundary) and bit-identical
/// on every conforming IEEE-754 implementation.
double decay_factor(sim::SimTime elapsed, sim::SimTime half_life);

/// Serializable per-beacon lifecycle record. Evidence is stored as of
/// `last_update`; queries decay it forward on the fly without mutating,
/// so read paths never perturb the durable image.
struct BeaconLifecycleState {
  double evidence = 0.0;
  sim::SimTime last_update = 0;
  LifecyclePhase phase = LifecyclePhase::kClear;
  /// Distinct accepted reporters, in first-acceptance order (the greedy
  /// corroboration scan iterates this order, so corroboration is a pure
  /// function of the accepted-alert history).
  std::vector<sim::NodeId> reporters;

  friend bool operator==(const BeaconLifecycleState&,
                         const BeaconLifecycleState&) = default;
};

/// What one observed alert (or settle sweep) did to the target's
/// lifecycle — the caller turns these into trace events and stats.
struct LifecycleOutcome {
  bool suspected = false;     // clear/exonerated -> suspected
  bool quarantined = false;   // suspected -> quarantined
  bool escalated = false;     // ... overriding the coverage guard
  bool guard_refused = false; // quarantine blocked by the coverage guard
  bool revoked = false;       // quarantined -> revoked (permanent)
  bool exonerated = false;    // quarantined -> exonerated
  double evidence = 0.0;      // decayed evidence after the update
  /// Coverage-guard context (valid when a quarantine was attempted):
  std::int64_t cell_x = 0;
  std::int64_t cell_y = 0;
  std::uint32_t cell_usable = 0;
  bool cell_known = false;
};

/// The evidence-lifecycle state machine. Owned by a BaseStation; all
/// methods are deterministic and mutation happens only in observe() and
/// settle().
class LifecycleTracker {
 public:
  LifecycleTracker(const LifecycleConfig& config, double quarantine_threshold);

  /// Registers a beacon's ground-truth position (deployment roster). The
  /// roster drives the coverage guard's cell census and the reporter
  /// plausibility check; registration order is the deterministic
  /// iteration order. Re-registering an id updates its position.
  void register_beacon(sim::NodeId id, util::Vec2 position);

  /// Folds one *accepted* alert into the target's lifecycle at time
  /// `now`. Returns the transitions taken.
  LifecycleOutcome observe(sim::NodeId reporter, sim::NodeId target,
                           sim::SimTime now);

  /// Materializes exoneration for every quarantined beacon whose decayed
  /// evidence has fallen below the clear threshold (end-of-trial sweep;
  /// observationally equivalent to the lazy queries, but gives the
  /// exonerations a trace event and a stats tick). Returns one outcome
  /// per exonerated beacon, in roster-registration order then
  /// first-suspicion order for unregistered ids.
  std::vector<std::pair<sim::NodeId, LifecycleOutcome>> settle(
      sim::SimTime now);

  /// Decayed evidence against `beacon` as of `now` (0 if never accused).
  double evidence(sim::NodeId beacon, sim::SimTime now) const;

  /// Lifecycle phase as of `now`. A stored kQuarantined whose evidence
  /// has decayed below the clear threshold reads as kExonerated (the
  /// lazy view; observe()/settle() materialize it).
  LifecyclePhase phase(sim::NodeId beacon, sim::SimTime now) const;

  bool is_quarantined(sim::NodeId beacon, sim::SimTime now) const {
    return phase(beacon, now) == LifecyclePhase::kQuarantined;
  }
  bool is_revoked(sim::NodeId beacon) const;

  /// Usable = neither permanently revoked nor currently quarantined.
  bool usable(sim::NodeId beacon, sim::SimTime now) const;

  /// Usable beacons in `beacon`'s deployment cell, excluding `beacon`
  /// itself. Returns false if the beacon's position is unknown.
  bool cell_census(sim::NodeId beacon, sim::SimTime now, std::int64_t* cell_x,
                   std::int64_t* cell_y, std::uint32_t* usable) const;

  /// Usable-beacon census of every occupied deployment cell, in
  /// first-registration order of the cells.
  struct CellCensus {
    std::int64_t cell_x = 0;
    std::int64_t cell_y = 0;
    std::uint32_t beacons = 0;
    std::uint32_t usable = 0;
  };
  std::vector<CellCensus> census_all(sim::SimTime now) const;
  /// Usable-beacon count of the sparsest occupied cell (0 with none).
  std::uint32_t min_usable(sim::SimTime now) const;

  /// Distinct accepted reporters against `beacon` so far.
  std::size_t distinct_reporters(sim::NodeId beacon) const;

  /// Serializable lifecycle image, in deterministic first-suspicion
  /// order. The roster itself is config-derived (re-registered after a
  /// restore) and is not part of the image.
  std::vector<std::pair<sim::NodeId, BeaconLifecycleState>> export_state()
      const;
  void import_state(
      const std::vector<std::pair<sim::NodeId, BeaconLifecycleState>>& state);

 private:
  BeaconLifecycleState& touch(sim::NodeId beacon);
  /// Greedy independent-witness count: reporters within plausible range
  /// of the target, kept only if >= independence_min_ft from every
  /// already-kept witness, scanned in first-acceptance order.
  std::uint32_t independent_witnesses(const BeaconLifecycleState& st,
                                      const util::Vec2& target_pos) const;

  LifecycleConfig config_;
  double quarantine_threshold_;
  std::unordered_map<sim::NodeId, util::Vec2> positions_;
  std::vector<sim::NodeId> roster_order_;
  std::unordered_map<sim::NodeId, BeaconLifecycleState> states_;
  /// Ids in `states_`, in first-suspicion order (deterministic export).
  std::vector<sim::NodeId> state_order_;
};

}  // namespace sld::revocation
