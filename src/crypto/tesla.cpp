#include "crypto/tesla.hpp"

#include <stdexcept>
#include <utility>

#include "crypto/mac.hpp"

namespace sld::crypto {

Key128 tesla_one_way(const Key128& key) {
  // Domain-separated PRF of a fixed message under the input key: inverting
  // it requires inverting SipHash with an unknown key.
  static constexpr Key128 kDomain{0x75, 0x54, 0x45, 0x53, 0x4c, 0x41,
                                  0x2d, 0x4f, 0x57, 0x46, 0x00, 0x00,
                                  0x00, 0x00, 0x00, 0x01};
  const std::uint64_t lo =
      siphash24(kDomain, std::span<const std::uint8_t>(key.data(), 16));
  Key128 shifted = key;
  shifted[15] ^= 0x5a;
  const std::uint64_t hi =
      siphash24(kDomain, std::span<const std::uint8_t>(shifted.data(), 16));
  Key128 out{};
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(lo >> (8 * i));
    out[static_cast<std::size_t>(i + 8)] =
        static_cast<std::uint8_t>(hi >> (8 * i));
  }
  return out;
}

TeslaKeyChain::TeslaKeyChain(Key128 seed, std::size_t length) {
  if (length == 0) throw std::invalid_argument("TeslaKeyChain: empty chain");
  keys_.resize(length + 1);
  keys_[length] = seed;
  for (std::size_t i = length; i > 0; --i)
    keys_[i - 1] = tesla_one_way(keys_[i]);
}

const Key128& TeslaKeyChain::key(std::size_t interval) const {
  if (interval == 0 || interval >= keys_.size())
    throw std::out_of_range("TeslaKeyChain::key: interval outside the chain");
  return keys_[interval];
}

bool TeslaKeyChain::verify_disclosed(const Key128& disclosed,
                                     std::size_t interval,
                                     const Key128& last_known_key,
                                     std::size_t last_known_interval) {
  if (interval <= last_known_interval) return false;
  Key128 walker = disclosed;
  for (std::size_t i = interval; i > last_known_interval; --i)
    walker = tesla_one_way(walker);
  return walker == last_known_key;
}

TeslaBroadcaster::TeslaBroadcaster(TeslaConfig config, Key128 chain_seed)
    : config_(config), chain_(chain_seed, config.chain_length) {
  if (config_.interval <= 0)
    throw std::invalid_argument("TeslaBroadcaster: non-positive interval");
  if (config_.disclosure_lag == 0)
    throw std::invalid_argument(
        "TeslaBroadcaster: disclosure lag must be >= 1");
}

std::size_t TeslaBroadcaster::interval_at(sim::SimTime now) const {
  if (now < 0) throw std::invalid_argument("interval_at: negative time");
  const auto idx =
      static_cast<std::size_t>(now / config_.interval) + 1;  // 1-based
  if (idx > chain_.length())
    throw std::runtime_error("TeslaBroadcaster: key chain exhausted");
  return idx;
}

TeslaPacket TeslaBroadcaster::authenticate(util::Bytes payload,
                                           sim::SimTime now) const {
  TeslaPacket packet;
  packet.interval = interval_at(now);
  packet.payload = std::move(payload);
  packet.mac = compute_mac(chain_.key(packet.interval),
                           /*src=*/0, /*dst=*/0xffffffffu, packet.payload);
  return packet;
}

std::optional<TeslaDisclosure> TeslaBroadcaster::disclosure_at(
    sim::SimTime now) const {
  const std::size_t current = interval_at(now);
  if (current <= config_.disclosure_lag) return std::nullopt;
  TeslaDisclosure d;
  d.interval = current - config_.disclosure_lag;
  d.key = chain_.key(d.interval);
  return d;
}

TeslaReceiver::TeslaReceiver(TeslaConfig config, Key128 commitment)
    : config_(config), last_key_(commitment) {}

bool TeslaReceiver::on_packet(const TeslaPacket& packet,
                              sim::SimTime rx_time) {
  // Security condition: at arrival, even a sender clock ahead of ours by
  // max_clock_skew must still be inside an interval whose key is not yet
  // disclosed. Otherwise an attacker holding the disclosed key could have
  // forged the packet.
  const auto latest_sender_interval = static_cast<std::size_t>(
      (rx_time + config_.max_clock_skew) / config_.interval) + 1;
  if (latest_sender_interval >= packet.interval + config_.disclosure_lag) {
    ++stats_.rejected_unsafe;
    return false;
  }
  if (packet.interval <= last_interval_) {
    // Key already known: either verify immediately... (not expected under
    // the security condition; treat as unsafe).
    ++stats_.rejected_unsafe;
    return false;
  }
  buffer_[packet.interval].push_back(packet);
  ++stats_.accepted_buffered;
  return true;
}

bool TeslaReceiver::on_disclosure(const TeslaDisclosure& disclosure) {
  if (disclosure.interval <= last_interval_) return true;  // stale, harmless
  if (!TeslaKeyChain::verify_disclosed(disclosure.key, disclosure.interval,
                                       last_key_, last_interval_)) {
    ++stats_.rejected_bad_key;
    return false;
  }

  // Verify and release every buffered packet whose interval key is now
  // derivable (any interval <= the disclosed one).
  Key128 interval_key = disclosure.key;
  for (std::size_t i = disclosure.interval; i > last_interval_; --i) {
    const auto it = buffer_.find(i);
    if (it != buffer_.end()) {
      for (const auto& packet : it->second) {
        if (verify_mac(interval_key, 0, 0xffffffffu, packet.payload,
                       packet.mac)) {
          released_.push_back(packet.payload);
          ++stats_.authenticated;
        } else {
          ++stats_.rejected_bad_mac;
        }
      }
      buffer_.erase(it);
    }
    interval_key = tesla_one_way(interval_key);
  }

  last_key_ = disclosure.key;
  last_interval_ = disclosure.interval;
  return true;
}

std::vector<util::Bytes> TeslaReceiver::take_authenticated() {
  return std::exchange(released_, {});
}

}  // namespace sld::crypto
