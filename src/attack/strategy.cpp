#include "attack/strategy.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace sld::attack {

MaliciousStrategyConfig MaliciousStrategyConfig::with_effectiveness(double P) {
  if (!(P >= 0.0 && P <= 1.0))
    throw std::invalid_argument("with_effectiveness: P outside [0, 1]");
  MaliciousStrategyConfig c;
  c.p_normal = 1.0 - P;
  return c;
}

MaliciousBeaconStrategy::MaliciousBeaconStrategy(
    MaliciousStrategyConfig config, std::uint64_t secret_seed)
    : config_(config) {
  for (const double p : {config_.p_normal, config_.p_fake_wormhole,
                         config_.p_fake_local_replay}) {
    if (!(p >= 0.0 && p <= 1.0))
      throw std::invalid_argument(
          "MaliciousBeaconStrategy: probability outside [0, 1]");
  }
  for (int i = 0; i < 8; ++i) {
    secret_[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(secret_seed >> (8 * i));
    secret_[static_cast<std::size_t>(i + 8)] = static_cast<std::uint8_t>(
        (secret_seed ^ 0xa5a5a5a5a5a5a5a5ULL) >> (8 * i));
  }
}

double MaliciousBeaconStrategy::keyed_uniform(sim::NodeId requester,
                                              std::uint64_t salt) const {
  const std::uint64_t h = crypto::siphash24_u64(
      secret_, (static_cast<std::uint64_t>(requester) << 24) ^ salt);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

MaliciousBehavior MaliciousBeaconStrategy::behavior_for(
    sim::NodeId requester) const {
  if (keyed_uniform(requester, 1) < config_.p_normal)
    return MaliciousBehavior::kNormal;
  if (keyed_uniform(requester, 2) < config_.p_fake_wormhole)
    return MaliciousBehavior::kFakeWormhole;
  if (keyed_uniform(requester, 3) < config_.p_fake_local_replay)
    return MaliciousBehavior::kFakeLocalReplay;
  return MaliciousBehavior::kEffective;
}

sim::BeaconReplyPayload MaliciousBeaconStrategy::craft_reply(
    sim::NodeId requester, std::uint64_t nonce,
    const util::Vec2& true_position) const {
  sim::BeaconReplyPayload reply;
  reply.nonce = nonce;
  // A sticky per-requester lie direction so repeated probes are coherent.
  const double angle =
      keyed_uniform(requester, 4) * 2.0 * std::numbers::pi;
  const util::Vec2 dir{std::cos(angle), std::sin(angle)};

  switch (behavior_for(requester)) {
    case MaliciousBehavior::kNormal:
      reply.claimed_position = true_position;
      break;
    case MaliciousBehavior::kFakeWormhole:
      // Claim an origin farther than any radio range so the receiver's
      // geographic precondition holds, and make its wormhole detector fire.
      reply.claimed_position = true_position + dir * config_.far_claim_ft;
      reply.fake_wormhole_indication = true;
      break;
    case MaliciousBehavior::kFakeLocalReplay:
      // Still a malicious signal — the point of the strategy is to dodge
      // *attribution*, not to behave: the inflated RTT report makes the
      // receiver discard it as a local replay instead of raising an alert.
      reply.claimed_position = true_position + dir * config_.location_lie_ft;
      reply.range_manipulation_ft = config_.range_manipulation_ft;
      reply.processing_bias_cycles = config_.rtt_inflation_cycles;
      break;
    case MaliciousBehavior::kEffective:
      // The damaging signal: a location lie plus a ranging manipulation
      // whose magnitude exceeds lie + e_max, so the measured and calculated
      // distances are inconsistent for every receiver geometry — corrupting
      // localization and, symmetrically, guaranteeing that a probing
      // detecting ID flags it.
      reply.claimed_position = true_position + dir * config_.location_lie_ft;
      reply.range_manipulation_ft = config_.range_manipulation_ft;
      break;
  }
  return reply;
}

}  // namespace sld::attack
