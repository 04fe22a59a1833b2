// Pairwise key management. The paper assumes "two communicating nodes share
// a unique pairwise key" and "each beacon node shares a unique random key
// with the base station". This manager models the *deployed* outcome of a
// key-establishment protocol: every (ordered-normalized) node pair and every
// node<->base-station pair gets a unique key derived from a master secret
// held by the deployment authority. Compromising a node (extracting its
// keys) hands the attacker exactly that node's keys and nothing else.
#pragma once

#include <cstdint>

#include "crypto/siphash.hpp"

namespace sld::crypto {

/// Reserved address of the base station.
inline constexpr std::uint32_t kBaseStationId = 0xffffffffu;

/// Derives pairwise and base-station keys from a master secret.
class PairwiseKeyManager {
 public:
  explicit PairwiseKeyManager(Key128 master) : master_(master) {}

  /// Deterministic from a 64-bit seed (test convenience).
  static PairwiseKeyManager from_seed(std::uint64_t seed);

  /// Unique key for the unordered pair {a, b}. a != b required. Each call
  /// derives the key afresh (derive_key) and nothing is cached, so a caller
  /// that needs one pair's key twice keeps it: a responding beacon
  /// verifies a request and MACs its reply under one derivation.
  Key128 pairwise_key(std::uint32_t a, std::uint32_t b) const;

  /// Unique key shared between node `id` and the base station.
  Key128 base_station_key(std::uint32_t id) const;

 private:
  Key128 master_;
};

}  // namespace sld::crypto
