#include "crypto/siphash.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace sld::crypto {
namespace {

Key128 reference_key() {
  Key128 k{};
  for (std::uint8_t i = 0; i < 16; ++i) k[i] = i;
  return k;
}

// Official SipHash-2-4 test vectors (Aumasson & Bernstein reference
// implementation): key = 00..0f, message i = bytes 00..(i-1).
constexpr std::uint64_t kReferenceVectors[] = {
    0x726fdb47dd0e0e31ULL, 0x74f839c593dc67fdULL, 0x0d6c8009d9a94f5aULL,
    0x85676696d7fb7e2dULL, 0xcf2794e0277187b7ULL, 0x18765564cd99a68dULL,
    0xcbc9466e58fee3ceULL, 0xab0200f58b01d137ULL, 0x93f5f5799a932462ULL,
    0x9e0082df0ba9e4b0ULL, 0x7a5dbbc594ddb9f3ULL, 0xf4b32f46226bada7ULL,
    0x751e8fbc860ee5fbULL, 0x14ea5627c0843d90ULL, 0xf723ca908e7af2eeULL,
    0xa129ca6149be45e5ULL,
};

TEST(SipHash, OfficialVectors) {
  const Key128 key = reference_key();
  std::vector<std::uint8_t> msg;
  for (std::size_t len = 0; len < std::size(kReferenceVectors); ++len) {
    EXPECT_EQ(siphash24(key, msg), kReferenceVectors[len])
        << "message length " << len;
    msg.push_back(static_cast<std::uint8_t>(len));
  }
}

TEST(SipHasher, OfficialVectorsAtEverySplitPoint) {
  // Two updates split anywhere, and three updates split at every pair of
  // points, must all equal the one-span hash — across the block-boundary
  // top-up and the pending-tail paths of the streaming code.
  const Key128 key = reference_key();
  std::vector<std::uint8_t> msg;
  for (std::size_t len = 0; len < std::size(kReferenceVectors); ++len) {
    const std::span<const std::uint8_t> all(msg);
    for (std::size_t a = 0; a <= len; ++a) {
      SipHasher two(key);
      two.update(all.first(a));
      two.update(all.subspan(a));
      EXPECT_EQ(two.finish(), kReferenceVectors[len])
          << "length " << len << " split at " << a;
      for (std::size_t b = a; b <= len; ++b) {
        SipHasher three(key);
        three.update(all.first(a));
        three.update(all.subspan(a, b - a));
        three.update(all.subspan(b));
        EXPECT_EQ(three.finish(), kReferenceVectors[len])
            << "length " << len << " split at " << a << ", " << b;
      }
    }
    msg.push_back(static_cast<std::uint8_t>(len));
  }
}

TEST(SipHasher, ByteAtATimeMatchesOneSpanForLongMessages) {
  const Key128 key = reference_key();
  std::vector<std::uint8_t> msg;
  for (std::size_t len = 0; len <= 80; ++len) {
    SipHasher h(key);
    for (const std::uint8_t b : msg) h.update(std::span(&b, 1));
    EXPECT_EQ(h.finish(), siphash24(key, msg)) << "length " << len;
    msg.push_back(static_cast<std::uint8_t>(len * 37 + 11));
  }
}

TEST(SipHash, Deterministic) {
  const Key128 key = reference_key();
  const std::vector<std::uint8_t> msg{1, 2, 3};
  EXPECT_EQ(siphash24(key, msg), siphash24(key, msg));
}

TEST(SipHash, KeySensitivity) {
  Key128 a = reference_key();
  Key128 b = reference_key();
  b[0] ^= 1;
  const std::vector<std::uint8_t> msg{1, 2, 3};
  EXPECT_NE(siphash24(a, msg), siphash24(b, msg));
}

TEST(SipHash, MessageSensitivity) {
  const Key128 key = reference_key();
  const std::vector<std::uint8_t> a{1, 2, 3};
  const std::vector<std::uint8_t> b{1, 2, 4};
  EXPECT_NE(siphash24(key, a), siphash24(key, b));
}

TEST(SipHash, LengthMattersEvenWithZeroPadding) {
  const Key128 key = reference_key();
  const std::vector<std::uint8_t> a{0, 0, 0};
  const std::vector<std::uint8_t> b{0, 0, 0, 0};
  EXPECT_NE(siphash24(key, a), siphash24(key, b));
}

TEST(SipHashU64, MatchesByteEncoding) {
  const Key128 key = reference_key();
  const std::uint64_t value = 0x0123456789abcdefULL;
  std::vector<std::uint8_t> le(8);
  for (int i = 0; i < 8; ++i)
    le[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(value >> (8 * i));
  EXPECT_EQ(siphash24_u64(key, value), siphash24(key, le));
}

TEST(DeriveKey, DistinctLabelsGiveDistinctKeys) {
  const Key128 master = reference_key();
  EXPECT_NE(derive_key(master, 1), derive_key(master, 2));
  EXPECT_EQ(derive_key(master, 1), derive_key(master, 1));
}

TEST(DeriveKey, DistinctMastersGiveDistinctKeys) {
  Key128 a = reference_key();
  Key128 b = reference_key();
  b[15] ^= 0x80;
  EXPECT_NE(derive_key(a, 7), derive_key(b, 7));
}

// Both ends of a link derive their key with the same function, so a wrong
// derivation keeps every MAC valid and every bench output unchanged; only
// a check against the definition sees it.
TEST(DeriveKey, IsTheTwoSipHashHalvesOfItsDefinition) {
  const auto expected = [](const Key128& master, std::uint64_t label) {
    const std::uint64_t halves[2] = {siphash24_u64(master, label * 2),
                                     siphash24_u64(master, label * 2 + 1)};
    Key128 k{};
    for (std::size_t i = 0; i < 16; ++i)
      k[i] = static_cast<std::uint8_t>(halves[i / 8] >> (8 * (i % 8)));
    return k;
  };
  util::Rng rng(0xde71e);
  for (int trial = 0; trial < 200; ++trial) {
    Key128 master{};
    for (auto& b : master) b = static_cast<std::uint8_t>(rng());
    // A random label, one >= 2^63 (where 2 * label wraps), and both ends.
    for (const std::uint64_t label :
         {rng(), rng() | (std::uint64_t{1} << 63), std::uint64_t{0},
          ~std::uint64_t{0}}) {
      EXPECT_EQ(derive_key(master, label), expected(master, label))
          << "trial " << trial << " label " << label;
    }
  }
}

TEST(DeriveKey, KnownAnswers) {
  const Key128 master = reference_key();
  EXPECT_EQ(derive_key(master, 0x0123456789abcdefULL),
            (Key128{0x9a, 0x9a, 0x39, 0x5e, 0xc6, 0x7b, 0x2c, 0xe6, 0xd1,
                    0xd0, 0xe8, 0xf9, 0x05, 0x3a, 0xb8, 0xb1}));
  EXPECT_EQ(derive_key(master, 0x8000000000000001ULL),
            (Key128{0x6d, 0xeb, 0x30, 0xfa, 0xf1, 0x30, 0xf0, 0x2c, 0x86,
                    0x35, 0xdc, 0x0b, 0x3a, 0xf7, 0x08, 0x3e}));
}

}  // namespace
}  // namespace sld::crypto
