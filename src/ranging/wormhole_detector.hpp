// Wormhole detectors. The paper assumes "a wormhole detector installed on
// every beacon and non-beacon node" that "can tell whether two communicating
// nodes are neighbor nodes or not with certain accuracy" — abstracted in the
// analysis to a detection rate p_d (0.9 in §4).
//
// Two implementations:
//  * ProbabilisticWormholeDetector — the paper's abstraction: fires on a
//    genuine wormhole crossing with probability p_d, never on direct
//    traffic, and always fires when the sender fakes wormhole indications
//    (the malicious "convince them it's a wormhole" strategy).
//  * GeographicLeashDetector — a concrete detector in the spirit of packet
//    leashes [Hu-Perrig-Johnson 03]: flags a delivery whose claimed origin
//    is farther than the maximum plausible radio range (plus the ranging
//    error margin). Its effective p_d emerges from geometry instead of
//    being assumed.
#pragma once

#include "sim/message.hpp"
#include "util/geometry.hpp"
#include "util/rng.hpp"

namespace sld::ranging {

/// What a detector sees about one delivery at the receiving node.
struct WormholeEvidence {
  /// Endpoint identities. Leash-style detectors give the same verdict for
  /// every packet on the same link, so the probabilistic model's p_d draw
  /// is sticky per (receiver, claimed sender) pair.
  std::uint32_t receiver_id = 0;
  std::uint32_t sender_id = 0;
  /// Ground truth from the channel: the copy crossed a tunnel.
  bool via_wormhole = false;
  /// The sender set the "this is a wormhole" manipulation bit.
  bool sender_faked_indication = false;
  /// Receiver's own (known or estimated) position, and whether it knows
  /// one at all (non-beacon sensors do not until they localize; detectors
  /// that need geometry must stand down without it).
  util::Vec2 receiver_position;
  bool receiver_knows_position = true;
  /// Location claimed inside the beacon packet.
  util::Vec2 claimed_sender_position;
  /// Distance the receiver measured from the signal, in feet.
  double measured_distance_ft = 0.0;
  /// Nominal radio range of the claimed sender, in feet.
  double sender_range_ft = 0.0;
};

class WormholeDetector {
 public:
  virtual ~WormholeDetector() = default;

  /// True if the detector reports a wormhole for this delivery.
  virtual bool detects(const WormholeEvidence& evidence,
                       util::Rng& rng) const = 0;
};

class ProbabilisticWormholeDetector final : public WormholeDetector {
 public:
  /// `seed` fixes the per-link verdicts for one trial: whether the link
  /// (receiver, sender) is caught is drawn once (probability
  /// `detection_rate`) and stays the same for every packet on it — the
  /// paper's per-pair (1 - p_d) false-alert bound depends on this.
  explicit ProbabilisticWormholeDetector(double detection_rate,
                                         std::uint64_t seed = 0x9d);

  double detection_rate() const { return detection_rate_; }

  bool detects(const WormholeEvidence& evidence,
               util::Rng& rng) const override;

 private:
  double detection_rate_;
  std::uint64_t seed_;
};

class GeographicLeashDetector final : public WormholeDetector {
 public:
  /// `margin_ft` absorbs honest ranging error before flagging.
  explicit GeographicLeashDetector(double margin_ft = 0.0);

  bool detects(const WormholeEvidence& evidence,
               util::Rng& rng) const override;

 private:
  double margin_ft_;
};

}  // namespace sld::ranging
