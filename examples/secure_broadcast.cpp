// Securing the revocation broadcast with uTESLA (paper reference [24]).
// The base station's revocation notices are broadcasts: if they were
// protected by a single shared key, any compromised node could forge
// "revoke beacon 7" and erase benign beacons from the network. This
// example walks the full uTESLA flow for a batch of revocations and then
// shows two attacks failing: a forged revocation (wrong key chain) and a
// replayed-late packet (security condition).
//
//   $ ./secure_broadcast
//
#include <cstdio>

#include "crypto/tesla.hpp"
#include "sim/message.hpp"

namespace {
/// A revocation notice as a broadcast body (TESLA packets own their bytes).
sld::util::Bytes revocation_bytes(sld::sim::NodeId beacon) {
  const sld::sim::Payload wire =
      sld::sim::RevocationPayload{beacon}.serialize();
  return sld::util::Bytes(wire.begin(), wire.end());
}
}  // namespace

int main() {
  using namespace sld;
  using crypto::TeslaBroadcaster;
  using crypto::TeslaReceiver;

  crypto::TeslaConfig cfg;
  cfg.interval = 500 * sim::kMillisecond;
  cfg.disclosure_lag = 2;
  cfg.max_clock_skew = 50 * sim::kMillisecond;
  cfg.chain_length = 100;

  crypto::Key128 chain_seed{};
  chain_seed.fill(0xb5);
  TeslaBroadcaster base_station(cfg, chain_seed);
  // Sensors are provisioned with the chain commitment at deployment time.
  TeslaReceiver sensor(cfg, base_station.commitment());

  std::printf("=== uTESLA-secured revocation broadcast ===\n");
  std::printf("interval 500 ms, disclosure lag 2, chain length %zu\n\n",
              cfg.chain_length);

  // The base station revokes beacons 7 and 23 during interval 1.
  const sim::NodeId revoked[] = {7, 23};
  sim::SimTime now = 200 * sim::kMillisecond;
  for (const auto beacon : revoked) {
    const auto packet =
        base_station.authenticate(revocation_bytes(beacon), now);
    const bool buffered =
        sensor.on_packet(packet, now + 20 * sim::kMillisecond);
    std::printf("broadcast: revoke beacon %-3u  interval %zu  -> %s\n",
                beacon, packet.interval,
                buffered ? "buffered (key not yet public)" : "REJECTED");
    now += 30 * sim::kMillisecond;
  }

  // An attacker forges a revocation of benign beacon 55 with a made-up key.
  {
    crypto::Key128 bogus{};
    bogus.fill(0x66);
    TeslaBroadcaster attacker(cfg, bogus);  // different (unknown) chain
    const auto forged = attacker.authenticate(revocation_bytes(55), now);
    sensor.on_packet(forged, now + 20 * sim::kMillisecond);
    const auto disclosure = attacker.disclosure_at(3 * cfg.interval);
    const bool key_ok =
        disclosure ? sensor.on_disclosure(*disclosure) : false;
    std::printf("attacker:  revoke beacon 55   -> key disclosure %s\n",
                key_ok ? "ACCEPTED (!!)" : "rejected (not on the chain)");
  }

  // The genuine key for interval 1 is disclosed during interval 3.
  const auto disclosure = base_station.disclosure_at(2 * cfg.interval + 1);
  if (disclosure && sensor.on_disclosure(*disclosure)) {
    for (const auto& payload : sensor.take_authenticated()) {
      const auto rev = sim::RevocationPayload::parse(payload);
      std::printf("sensor:    authenticated revocation of beacon %u\n",
                  rev.revoked);
    }
  }

  // A captured packet replayed after its key went public must be dropped.
  {
    const auto old_packet =
        base_station.authenticate(revocation_bytes(88),
                                  200 * sim::kMillisecond);
    const bool accepted =
        sensor.on_packet(old_packet, 5 * sim::kSecond);  // way too late
    std::printf("replayer:  revoke beacon 88   -> %s\n",
                accepted ? "buffered (!!)"
                         : "rejected (security condition: key already "
                           "public)");
  }

  const auto& st = sensor.stats();
  std::printf("\nsensor stats: %llu authenticated, %llu unsafe-rejected, "
              "%llu bad-key disclosures\n",
              static_cast<unsigned long long>(st.authenticated),
              static_cast<unsigned long long>(st.rejected_unsafe),
              static_cast<unsigned long long>(st.rejected_bad_key));
  return 0;
}
