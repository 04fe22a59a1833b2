#include "sim/message.hpp"

#include "obs/memstats.hpp"

namespace sld::sim {

Payload BeaconRequestPayload::serialize() const {
  SLD_MEM_SCOPE("messages");
  util::BasicByteWriter<Payload> w;
  w.u64(nonce);
  return w.take();
}

BeaconRequestPayload BeaconRequestPayload::parse(
    std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  BeaconRequestPayload p;
  p.nonce = r.u64();
  return p;
}

Payload BeaconReplyPayload::serialize() const {
  SLD_MEM_SCOPE("messages");
  util::BasicByteWriter<Payload> w;
  w.u64(nonce);
  w.f64(claimed_position.x);
  w.f64(claimed_position.y);
  w.f64(processing_bias_cycles);
  w.f64(range_manipulation_ft);
  w.u8(fake_wormhole_indication ? 1 : 0);
  return w.take();
}

BeaconReplyPayload BeaconReplyPayload::parse(
    std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  BeaconReplyPayload p;
  p.nonce = r.u64();
  p.claimed_position.x = r.f64();
  p.claimed_position.y = r.f64();
  p.processing_bias_cycles = r.f64();
  p.range_manipulation_ft = r.f64();
  p.fake_wormhole_indication = r.u8() != 0;
  return p;
}

Payload AlertPayload::serialize() const {
  SLD_MEM_SCOPE("messages");
  util::BasicByteWriter<Payload> w;
  w.u32(reporter);
  w.u32(target);
  return w.take();
}

AlertPayload AlertPayload::parse(
    std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  AlertPayload p;
  p.reporter = r.u32();
  p.target = r.u32();
  return p;
}

Payload RevocationPayload::serialize() const {
  SLD_MEM_SCOPE("messages");
  util::BasicByteWriter<Payload> w;
  w.u32(revoked);
  return w.take();
}

RevocationPayload RevocationPayload::parse(
    std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  RevocationPayload p;
  p.revoked = r.u32();
  return p;
}

}  // namespace sld::sim
