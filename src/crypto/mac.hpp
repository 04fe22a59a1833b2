// Message authentication for beacon traffic. Every unicast packet carries a
// 64-bit SipHash tag under the pairwise key of the two endpoints; packets
// forged by external attackers without the right key fail verification and
// are dropped, exactly as the paper assumes ("beacon packets forged by
// external attackers ... can be easily filtered out").
#pragma once

#include <cstdint>
#include <span>

#include "crypto/siphash.hpp"

namespace sld::crypto {

/// 64-bit authentication tag.
using MacTag = std::uint64_t;

/// Computes the tag of `payload` bound to (src, dst) under `key`: the
/// SipHash-2-4 of the 12-byte little-endian header (src, dst,
/// payload length) followed by the payload. Binding the addresses prevents
/// an attacker from splicing a valid payload onto a different
/// sender/receiver pair.
MacTag compute_mac(const Key128& key, std::uint32_t src, std::uint32_t dst,
                   std::span<const std::uint8_t> payload);

/// Constant-shape verification (the simulator has no timing side channel,
/// but the API mirrors real practice).
bool verify_mac(const Key128& key, std::uint32_t src, std::uint32_t dst,
                std::span<const std::uint8_t> payload, MacTag tag);

}  // namespace sld::crypto
