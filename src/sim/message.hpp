// Wire messages and the PHY-level transmission context.
//
// `Message` is what the protocol layer authenticates and parses; `TxContext`
// is what the radio "physics" knows about a transmission — where the energy
// actually radiated from (which is what RSSI ranging measures), whether it
// crossed a wormhole, and how much replay delay it accumulated (which is
// what the RTT filter measures). Keeping the two separate is what lets
// attackers lie at the packet layer while the physics stays honest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "crypto/mac.hpp"
#include "sim/time.hpp"
#include "util/bytes.hpp"
#include "util/geometry.hpp"

namespace sld::sim {

using NodeId = std::uint32_t;

/// Message kinds used by the secure-location-discovery protocols.
enum class MsgType : std::uint16_t {
  kBeaconRequest = 1,  // requester -> beacon: "send me a beacon signal"
  kBeaconReply = 2,    // beacon -> requester: location + timing report
  kAlertReport = 3,    // detecting node -> base station
  kRevocation = 4,     // base station -> network broadcast
  kAppData = 5,        // application traffic (examples)
};

/// Capacity of a wire payload. The largest protocol payload,
/// BeaconReplyPayload, is 41 bytes; the payload lives inside the Message,
/// so copying or queueing a message never allocates.
inline constexpr std::size_t kMaxPayloadBytes = 48;

/// Payload bytes, inline. Writing past kMaxPayloadBytes throws
/// util::BufferOverflow.
using Payload = util::InlineBytes<kMaxPayloadBytes>;

/// An authenticated unicast packet.
struct Message {
  NodeId src = 0;  // claimed sender id
  NodeId dst = 0;
  MsgType type = MsgType::kAppData;
  Payload payload;
  crypto::MacTag mac = 0;
};

/// Physical context of one transmission, filled in by the channel.
struct TxContext {
  /// Where the radio energy actually radiated from. For a genuine sender
  /// this is its position; for a wormhole exit it is the exit mouth. RSSI
  /// ranging measures distance to this point.
  util::Vec2 radiating_position;

  /// Transmission range of the radiating device, in feet.
  double radiating_range = 0.0;

  /// Extra delay a wormhole tunnel added, in CPU cycles; the RTT filter
  /// sees this on top of the honest round-trip time.
  double extra_delay_cycles = 0.0;

  /// Ground truth: did this copy cross a wormhole tunnel? (Wormhole
  /// detectors are modelled as catching this with probability p_d.)
  bool via_wormhole = false;
};

/// A message as it arrives at a receiver.
struct Delivery {
  Message msg;
  TxContext ctx;
  SimTime rx_time = 0;
};

/// --- Protocol payloads -----------------------------------------------

/// Request for a beacon signal. The nonce pairs replies with requests and
/// feeds the RTT measurement.
struct BeaconRequestPayload {
  std::uint64_t nonce = 0;

  Payload serialize() const;
  static BeaconRequestPayload parse(std::span<const std::uint8_t> bytes);
};

/// Beacon signal contents: the claimed location plus the receiver-side
/// timing report (t3 - t2) used by the RTT protocol. A malicious beacon can
/// skew `processing_bias_cycles` to make its own signal look replayed.
struct BeaconReplyPayload {
  std::uint64_t nonce = 0;
  util::Vec2 claimed_position;
  /// Lie added to the reported (t3 - t2): positive values inflate the
  /// observed RTT (signal appears locally replayed); zero for honest nodes.
  double processing_bias_cycles = 0.0;
  /// Physical-layer manipulation of the ranging signal, in feet; shifts the
  /// distance the receiver measures. Zero for honest nodes.
  double range_manipulation_ft = 0.0;
  /// Manipulation that makes wormhole detectors fire at the receiver (the
  /// "convince them it came through a wormhole" strategy). Honest: false.
  bool fake_wormhole_indication = false;

  /// Encoded size: nonce, four doubles and the indication byte.
  static constexpr std::size_t kWireBytes = 8 + 4 * 8 + 1;

  Payload serialize() const;
  static BeaconReplyPayload parse(std::span<const std::uint8_t> bytes);
};

/// Alert from a detecting node to the base station (paper §3.1: "every
/// alert ... includes the ID of the detecting node and the ID of the target
/// node"). The reporter field is the *beacon* identity, not the detecting
/// ID used during the probe.
struct AlertPayload {
  NodeId reporter = 0;
  NodeId target = 0;

  Payload serialize() const;
  static AlertPayload parse(std::span<const std::uint8_t> bytes);
};

/// Base-station revocation notice.
struct RevocationPayload {
  NodeId revoked = 0;

  Payload serialize() const;
  static RevocationPayload parse(std::span<const std::uint8_t> bytes);
};

static_assert(BeaconReplyPayload::kWireBytes <= kMaxPayloadBytes,
              "the largest payload must fit a Message inline");

}  // namespace sld::sim
