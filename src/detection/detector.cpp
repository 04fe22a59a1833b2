#include "detection/detector.hpp"

#include "check/invariant.hpp"
#include "obs/memstats.hpp"

namespace sld::detection {

Detector::Detector(DetectorConfig config,
                   const ranging::WormholeDetector* wormhole_detector)
    : consistency_(config.max_ranging_error_ft),
      replay_filter_(config.replay, wormhole_detector) {}

namespace {
const char* outcome_name(ProbeOutcome outcome) {
  switch (outcome) {
    case ProbeOutcome::kConsistent:
      return "consistent";
    case ProbeOutcome::kIgnoredWormholeReplay:
      return "ignored_wormhole";
    case ProbeOutcome::kIgnoredLocalReplay:
      return "ignored_local_replay";
    case ProbeOutcome::kAlert:
      return "alert";
    case ProbeOutcome::kNoResponse:
      return "no_response";
  }
  return "unknown";
}
}  // namespace

ProbeOutcome Detector::evaluate(const SignalObservation& observation,
                                util::Rng& rng) const {
  SLD_MEM_SCOPE("detection");
  const ConsistencyResult consistency =
      consistency_.check(observation.receiver_position,
                         observation.claimed_position,
                         observation.measured_distance_ft);
  if (trace_.on()) {
    trace_.emit(trace_.event("detect.consistency")
                    .f("node", observation.receiver_id)
                    .f("target", observation.sender_id)
                    .f("measured_ft", observation.measured_distance_ft)
                    .f("expected_ft", consistency.calculated_ft)
                    .f("deviation_ft", consistency.deviation_ft)
                    .f("threshold_ft", consistency_.max_error_ft())
                    .f("malicious", consistency.malicious));
  }
  ProbeOutcome outcome = ProbeOutcome::kConsistent;
  if (consistency.malicious) {
    switch (replay_filter_.evaluate_at_detecting_node(observation, rng)) {
      case SignalVerdict::kWormholeReplay:
        outcome = ProbeOutcome::kIgnoredWormholeReplay;
        break;
      case SignalVerdict::kLocalReplay:
        outcome = ProbeOutcome::kIgnoredLocalReplay;
        break;
      case SignalVerdict::kGenuine:
        outcome = ProbeOutcome::kAlert;
        break;
    }
  }
  if (trace_.on()) {
    trace_.emit(trace_.event("detect.verdict")
                    .f("node", observation.receiver_id)
                    .f("target", observation.sender_id)
                    .f("outcome", outcome_name(outcome)));
  }
  // Written so a NaN deviation (a non-finite claim or measurement) must
  // read as malicious.
  SLD_INVARIANT(consistency.malicious ==
                    !(consistency.deviation_ft <= consistency_.max_error_ft()),
                "consistency verdict must be malicious exactly when the "
                "deviation is not within the bound: deviation="
                    << consistency.deviation_ft
                    << " ft, threshold=" << consistency_.max_error_ft()
                    << " ft, malicious=" << consistency.malicious);
  SLD_INVARIANT((outcome == ProbeOutcome::kConsistent) ==
                    !consistency.malicious,
                "verdict consistency: outcome " << outcome_name(outcome)
                    << " contradicts consistency.malicious="
                    << consistency.malicious);
  return outcome;
}

}  // namespace sld::detection
