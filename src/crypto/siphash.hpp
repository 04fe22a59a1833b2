// SipHash-2-4: a keyed 64-bit PRF (Aumasson & Bernstein, 2012). Used as the
// MAC primitive for beacon packets and as the keyed hash behind sticky
// per-requester attacker decisions. Implemented from scratch — the target
// platform (sensor motes) would never link OpenSSL, and the reference
// vectors below pin the implementation.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace sld::crypto {

/// 128-bit SipHash key.
using Key128 = std::array<std::uint8_t, 16>;

/// Incremental SipHash-2-4: feed byte spans with update(), then call
/// finish() once. The result equals siphash24 over the spans'
/// concatenation, wherever the split points fall.
class SipHasher {
 public:
  explicit SipHasher(const Key128& key);

  void update(std::span<const std::uint8_t> data);
  std::uint64_t finish();

 private:
  std::array<std::uint64_t, 4> v_;
  std::uint64_t tail_ = 0;  // pending bytes of the current 8-byte block
  std::size_t len_ = 0;     // total bytes fed
};

/// SipHash-2-4 of `data` under `key` (one SipHasher update).
std::uint64_t siphash24(const Key128& key, std::span<const std::uint8_t> data);

/// Convenience: SipHash-2-4 of a 64-bit value (little-endian encoded).
std::uint64_t siphash24_u64(const Key128& key, std::uint64_t value);

/// Derives a subkey from `master` and a 64-bit context label: the
/// little-endian bytes of siphash24_u64(master, 2·label) followed by those
/// of siphash24_u64(master, 2·label + 1), with 2·label taken mod 2^64.
Key128 derive_key(const Key128& master, std::uint64_t label);

}  // namespace sld::crypto
