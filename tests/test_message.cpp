#include "sim/message.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>

namespace sld::sim {
namespace {

TEST(BeaconRequestPayload, RoundTrip) {
  BeaconRequestPayload p;
  p.nonce = 0x1122334455667788ULL;
  const auto parsed = BeaconRequestPayload::parse(p.serialize());
  EXPECT_EQ(parsed.nonce, p.nonce);
}

TEST(BeaconReplyPayload, RoundTripAllFields) {
  BeaconReplyPayload p;
  p.nonce = 42;
  p.claimed_position = {123.5, -9.25};
  p.processing_bias_cycles = 1234.5;
  p.range_manipulation_ft = -60.0;
  p.fake_wormhole_indication = true;
  const auto parsed = BeaconReplyPayload::parse(p.serialize());
  EXPECT_EQ(parsed.nonce, 42u);
  EXPECT_EQ(parsed.claimed_position, p.claimed_position);
  EXPECT_DOUBLE_EQ(parsed.processing_bias_cycles, 1234.5);
  EXPECT_DOUBLE_EQ(parsed.range_manipulation_ft, -60.0);
  EXPECT_TRUE(parsed.fake_wormhole_indication);
}

TEST(BeaconReplyPayload, HonestDefaults) {
  BeaconReplyPayload p;
  const auto parsed = BeaconReplyPayload::parse(p.serialize());
  EXPECT_EQ(parsed.processing_bias_cycles, 0.0);
  EXPECT_EQ(parsed.range_manipulation_ft, 0.0);
  EXPECT_FALSE(parsed.fake_wormhole_indication);
}

TEST(AlertPayload, RoundTrip) {
  AlertPayload p{17, 93};
  const auto parsed = AlertPayload::parse(p.serialize());
  EXPECT_EQ(parsed.reporter, 17u);
  EXPECT_EQ(parsed.target, 93u);
}

TEST(RevocationPayload, RoundTrip) {
  RevocationPayload p{55};
  EXPECT_EQ(RevocationPayload::parse(p.serialize()).revoked, 55u);
}

TEST(Payloads, TruncatedBytesThrow) {
  BeaconReplyPayload p;
  const Payload bytes = p.serialize();
  const std::span<const std::uint8_t> shortened =
      std::span<const std::uint8_t>(bytes).first(bytes.size() - 1);
  EXPECT_THROW(BeaconReplyPayload::parse(shortened), util::TruncatedBuffer);
  EXPECT_THROW(AlertPayload::parse(util::Bytes{1, 2}), util::TruncatedBuffer);
}

TEST(Payloads, LargestPayloadFitsInline) {
  EXPECT_EQ(BeaconReplyPayload{}.serialize().size(),
            BeaconReplyPayload::kWireBytes);
  EXPECT_LE(BeaconReplyPayload::kWireBytes, kMaxPayloadBytes);
  EXPECT_EQ(BeaconRequestPayload{}.serialize().size(), 8u);
  EXPECT_EQ(AlertPayload{}.serialize().size(), 8u);
  EXPECT_EQ(RevocationPayload{}.serialize().size(), 4u);
}

TEST(Payloads, FullCapacityRoundTrips) {
  util::BasicByteWriter<Payload> w;
  for (std::uint64_t i = 0; i < kMaxPayloadBytes / 8; ++i)
    w.u64(0x0101010101010101ULL * (i + 1));
  const Payload full = w.take();
  ASSERT_EQ(full.size(), kMaxPayloadBytes);
  util::ByteReader r(full);
  for (std::uint64_t i = 0; i < kMaxPayloadBytes / 8; ++i)
    EXPECT_EQ(r.u64(), 0x0101010101010101ULL * (i + 1));
  EXPECT_TRUE(r.exhausted());

  // A message carries it intact through a copy.
  Message m;
  m.payload = full;
  const Message copy = m;
  EXPECT_EQ(copy.payload, full);
}

TEST(Payloads, WritingPastCapacityThrows) {
  util::BasicByteWriter<Payload> w;
  for (std::size_t i = 0; i < kMaxPayloadBytes; ++i)
    w.u8(static_cast<std::uint8_t>(i));
  EXPECT_THROW(w.u8(0), util::BufferOverflow);
  EXPECT_EQ(w.size(), kMaxPayloadBytes);
  // A wider write that would straddle the end throws too.
  util::BasicByteWriter<Payload> almost;
  for (std::size_t i = 0; i + 4 < kMaxPayloadBytes; ++i) almost.u8(0);
  EXPECT_THROW(almost.u64(1), util::BufferOverflow);
}

TEST(TxContext, DefaultsAreHonest) {
  TxContext ctx;
  EXPECT_EQ(ctx.extra_delay_cycles, 0.0);
  EXPECT_FALSE(ctx.via_wormhole);
}

}  // namespace
}  // namespace sld::sim
