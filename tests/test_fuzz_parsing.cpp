// Adversarial-input fuzzing of everything that parses bytes off the wire:
// random and truncated buffers must either parse or throw TruncatedBuffer —
// never crash, never read out of bounds (run under sanitizers to enforce
// the latter). An in-network attacker controls these bytes completely.
#include <gtest/gtest.h>

#include "sim/message.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace sld {
namespace {

util::Bytes random_bytes(util::Rng& rng, std::size_t len) {
  util::Bytes out(len);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_u64(256));
  return out;
}

template <typename Payload>
void fuzz_parser(std::uint64_t seed) {
  util::Rng rng(seed);
  for (int i = 0; i < 5000; ++i) {
    const auto len = static_cast<std::size_t>(rng.uniform_u64(64));
    const auto bytes = random_bytes(rng, len);
    try {
      (void)Payload::parse(bytes);
    } catch (const util::TruncatedBuffer&) {
      // acceptable: the only error a malformed packet may raise
    }
  }
}

TEST(FuzzParsing, BeaconRequestSurvivesGarbage) {
  fuzz_parser<sim::BeaconRequestPayload>(1);
}

TEST(FuzzParsing, BeaconReplySurvivesGarbage) {
  fuzz_parser<sim::BeaconReplyPayload>(2);
}

TEST(FuzzParsing, AlertSurvivesGarbage) { fuzz_parser<sim::AlertPayload>(3); }

TEST(FuzzParsing, RevocationSurvivesGarbage) {
  fuzz_parser<sim::RevocationPayload>(4);
}

TEST(FuzzParsing, TruncationSweepOfValidReply) {
  // Every strict prefix of a valid serialization must throw (the reply
  // payload has no variable-length tail that could accidentally parse).
  sim::BeaconReplyPayload p;
  p.nonce = 42;
  p.claimed_position = {1.0, 2.0};
  const auto full = p.serialize();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    util::Bytes prefix(full.begin(),
                       full.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)sim::BeaconReplyPayload::parse(prefix),
                 util::TruncatedBuffer)
        << "prefix length " << cut;
  }
}

TEST(FuzzParsing, BitflipSweepStillParsesOrThrows) {
  // Single bit flips in a valid buffer parse to *something* (values are
  // attacker-controlled anyway) or throw; the MAC layer is what rejects
  // them semantically.
  sim::BeaconReplyPayload p;
  p.nonce = 7;
  const auto full = p.serialize();
  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = full;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NO_THROW((void)sim::BeaconReplyPayload::parse(mutated));
    }
  }
}

TEST(FuzzParsing, ByteReaderNeverReadsPastEnd) {
  util::Rng rng(6);
  for (int i = 0; i < 2000; ++i) {
    const auto bytes = random_bytes(rng, rng.uniform_u64(16));
    util::ByteReader r(bytes);
    try {
      // Request a mix of reads larger than the buffer can hold.
      r.u32();
      r.sized_bytes();
      r.f64();
    } catch (const util::TruncatedBuffer&) {
    }
    EXPECT_LE(r.remaining(), bytes.size());
  }
}

}  // namespace
}  // namespace sld
