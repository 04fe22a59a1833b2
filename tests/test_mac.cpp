#include "crypto/mac.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "prop/prop.hpp"
#include "sim/message.hpp"

namespace sld::crypto {
namespace {

Key128 key_a() {
  Key128 k{};
  k[0] = 1;
  return k;
}

Key128 key_b() {
  Key128 k{};
  k[0] = 2;
  return k;
}

const std::vector<std::uint8_t> kPayload{10, 20, 30};

TEST(Mac, RoundTripVerifies) {
  const MacTag tag = compute_mac(key_a(), 1, 2, kPayload);
  EXPECT_TRUE(verify_mac(key_a(), 1, 2, kPayload, tag));
}

TEST(Mac, WrongKeyFails) {
  const MacTag tag = compute_mac(key_a(), 1, 2, kPayload);
  EXPECT_FALSE(verify_mac(key_b(), 1, 2, kPayload, tag));
}

TEST(Mac, TamperedPayloadFails) {
  const MacTag tag = compute_mac(key_a(), 1, 2, kPayload);
  std::vector<std::uint8_t> tampered = kPayload;
  tampered[0] ^= 1;
  EXPECT_FALSE(verify_mac(key_a(), 1, 2, tampered, tag));
}

TEST(Mac, AddressBindingPreventsSplicing) {
  const MacTag tag = compute_mac(key_a(), 1, 2, kPayload);
  // Same payload and key, different claimed endpoints: must fail.
  EXPECT_FALSE(verify_mac(key_a(), 3, 2, kPayload, tag));
  EXPECT_FALSE(verify_mac(key_a(), 1, 4, kPayload, tag));
  EXPECT_FALSE(verify_mac(key_a(), 2, 1, kPayload, tag));
}

TEST(Mac, EmptyPayloadSupported) {
  const std::vector<std::uint8_t> empty;
  const MacTag tag = compute_mac(key_a(), 5, 6, empty);
  EXPECT_TRUE(verify_mac(key_a(), 5, 6, empty, tag));
  EXPECT_FALSE(verify_mac(key_a(), 5, 6, kPayload, tag));
}

TEST(Mac, RandomGuessFails) {
  // An external attacker guessing tags (Figure 1a) is filtered out.
  const MacTag tag = compute_mac(key_a(), 1, 2, kPayload);
  EXPECT_FALSE(verify_mac(key_a(), 1, 2, kPayload, tag ^ 0x1));
  EXPECT_FALSE(verify_mac(key_a(), 1, 2, kPayload, 0));
}

// The wire format, locked: the tag is SipHash-2-4 over the explicit
// 12-byte little-endian (src, dst, length) header followed by the payload,
// for every payload length a Message can carry.
TEST(MacProperty, TagIsSipHashOverLittleEndianHeaderThenPayload) {
  struct Case {
    Key128 key;
    std::uint32_t src, dst;
    std::vector<std::uint8_t> payload;
  };
  prop::Gen<Case> gen;
  gen.generate = [](util::Rng& rng) {
    Case c;
    for (auto& b : c.key) b = static_cast<std::uint8_t>(rng());
    c.src = static_cast<std::uint32_t>(rng());
    c.dst = static_cast<std::uint32_t>(rng());
    c.payload.resize(rng.uniform_u64(sim::kMaxPayloadBytes + 1));
    for (auto& b : c.payload) b = static_cast<std::uint8_t>(rng());
    return c;
  };
  const auto expected_tag = [](const Case& c) {
    std::vector<std::uint8_t> wire;
    const auto le32 = [&wire](std::uint32_t v) {
      for (int i = 0; i < 4; ++i)
        wire.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    le32(c.src);
    le32(c.dst);
    le32(static_cast<std::uint32_t>(c.payload.size()));
    wire.insert(wire.end(), c.payload.begin(), c.payload.end());
    return siphash24(c.key, wire);
  };
  EXPECT_TRUE(prop::forall(
      "compute_mac == siphash24(le32 src | le32 dst | le32 len | payload)",
      gen, [&](const Case& c) {
        const MacTag tag = compute_mac(c.key, c.src, c.dst, c.payload);
        return tag == expected_tag(c) &&
               verify_mac(c.key, c.src, c.dst, c.payload, tag);
      },
      prop::Config{.iterations = 400}));

  // And every length 0..48 explicitly, so none is left to chance.
  util::Rng rng(0x3ac);
  for (std::size_t len = 0; len <= sim::kMaxPayloadBytes; ++len) {
    Case c = gen.generate(rng);
    c.payload.resize(len, 0x5a);
    EXPECT_EQ(compute_mac(c.key, c.src, c.dst, c.payload), expected_tag(c))
        << "payload length " << len;
  }
}

TEST(Mac, InlinePayloadTagEqualsVectorTag) {
  sim::BeaconReplyPayload reply;
  reply.nonce = 99;
  reply.claimed_position = {12.5, 800.25};
  const sim::Payload inline_bytes = reply.serialize();
  const std::vector<std::uint8_t> copy(inline_bytes.begin(),
                                       inline_bytes.end());
  EXPECT_EQ(compute_mac(key_a(), 7, 9, inline_bytes),
            compute_mac(key_a(), 7, 9, copy));
}

}  // namespace
}  // namespace sld::crypto
