#include "ranging/wormhole_detector.hpp"

#include <stdexcept>

namespace sld::ranging {

ProbabilisticWormholeDetector::ProbabilisticWormholeDetector(
    double detection_rate, std::uint64_t seed)
    : detection_rate_(detection_rate), seed_(seed) {
  if (!(detection_rate_ >= 0.0 && detection_rate_ <= 1.0))
    throw std::invalid_argument(
        "ProbabilisticWormholeDetector: rate outside [0, 1]");
}

bool ProbabilisticWormholeDetector::detects(const WormholeEvidence& evidence,
                                            util::Rng& rng) const {
  (void)rng;  // per-link verdicts are sticky, not re-drawn per packet
  if (evidence.sender_faked_indication) return true;
  if (!evidence.via_wormhole) return false;
  // Keyed uniform draw per (receiver, sender) link.
  std::uint64_t state = seed_ ^ 0x77686f6c65ULL;
  state ^= (static_cast<std::uint64_t>(evidence.receiver_id) << 32) |
           evidence.sender_id;
  const std::uint64_t h = util::splitmix64(state);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < detection_rate_;
}

GeographicLeashDetector::GeographicLeashDetector(double margin_ft)
    : margin_ft_(margin_ft) {
  if (margin_ft_ < 0.0)
    throw std::invalid_argument("GeographicLeashDetector: negative margin");
}

bool GeographicLeashDetector::detects(const WormholeEvidence& evidence,
                                      util::Rng& rng) const {
  (void)rng;  // deterministic detector
  if (evidence.sender_faked_indication) return true;
  // Geographic leashes need the receiver's own location; a node that has
  // not localized yet cannot evaluate them.
  if (!evidence.receiver_knows_position) return false;
  // A signal physically measured close by while claiming an origin farther
  // than one radio range (+margin) cannot have come directly.
  const double claimed =
      util::distance(evidence.receiver_position,
                     evidence.claimed_sender_position);
  return claimed > evidence.sender_range_ft + margin_ft_;
}

}  // namespace sld::ranging
