#include "crypto/siphash.hpp"

#include <cstring>

namespace sld::crypto {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int b) {
  return (x << b) | (x >> (64 - b));
}

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

// The state lives in locals while a span is absorbed: byte loads may
// alias anything, so working on members would force a store and reload
// of the state around every block.
struct SipState {
  std::uint64_t v0, v1, v2, v3;

  void round() {
    v0 += v1;
    v1 = rotl(v1, 13);
    v1 ^= v0;
    v0 = rotl(v0, 32);
    v2 += v3;
    v3 = rotl(v3, 16);
    v3 ^= v2;
    v0 += v3;
    v3 = rotl(v3, 21);
    v3 ^= v0;
    v2 += v1;
    v1 = rotl(v1, 17);
    v1 ^= v2;
    v2 = rotl(v2, 32);
  }

  void compress(std::uint64_t m) {
    v3 ^= m;
    round();
    round();
    v0 ^= m;
  }

  /// Absorbs the last block (`tail`, the < 8 pending bytes, plus the
  /// length byte) and runs the finalization rounds.
  std::uint64_t finish(std::uint64_t tail, std::size_t len) {
    compress(tail | static_cast<std::uint64_t>(len & 0xff) << 56);
    v2 ^= 0xff;
    round();
    round();
    round();
    round();
    return v0 ^ v1 ^ v2 ^ v3;
  }
};

SipState initial_state(const Key128& key) {
  const std::uint64_t k0 = load_le64(key.data());
  const std::uint64_t k1 = load_le64(key.data() + 8);
  return SipState{0x736f6d6570736575ULL ^ k0, 0x646f72616e646f6dULL ^ k1,
                  0x6c7967656e657261ULL ^ k0, 0x7465646279746573ULL ^ k1};
}

}  // namespace

SipHasher::SipHasher(const Key128& key) {
  const SipState s = initial_state(key);
  v_ = {s.v0, s.v1, s.v2, s.v3};
}

void SipHasher::update(std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::size_t fill = len_ & 7;  // bytes already pending in tail_
  len_ += n;
  std::uint64_t tail = tail_;
  SipState s{v_[0], v_[1], v_[2], v_[3]};
  if (fill != 0) {
    // Top up the partial block the previous span left behind.
    for (; n > 0 && fill < 8; --n, ++fill, ++p)
      tail |= static_cast<std::uint64_t>(*p) << (8 * fill);
    if (fill == 8) {
      s.compress(tail);
      tail = 0;
    }
  }
  for (; n >= 8; n -= 8, p += 8) s.compress(load_le64(p));
  for (std::size_t i = 0; i < n; ++i)
    tail |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  tail_ = tail;
  v_ = {s.v0, s.v1, s.v2, s.v3};
}

std::uint64_t SipHasher::finish() {
  SipState s{v_[0], v_[1], v_[2], v_[3]};
  return s.finish(tail_, len_);
}

std::uint64_t siphash24(const Key128& key,
                        std::span<const std::uint8_t> data) {
  SipHasher h(key);
  h.update(data);
  return h.finish();
}

std::uint64_t siphash24_u64(const Key128& key, std::uint64_t value) {
  // The 8-byte little-endian encoding of `value` is one full block.
  SipState s = initial_state(key);
  s.compress(value);
  return s.finish(0, 8);
}

Key128 derive_key(const Key128& master, std::uint64_t label) {
  // Two siphash24_u64 calls from one keyed state: written side by side,
  // their independent round chains overlap.
  SipState lo_state = initial_state(master);
  SipState hi_state = lo_state;
  lo_state.compress(label * 2);
  hi_state.compress(label * 2 + 1);
  const std::uint64_t lo = lo_state.finish(0, 8);
  const std::uint64_t hi = hi_state.finish(0, 8);
  Key128 out{};
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(lo >> (8 * i));
    out[static_cast<std::size_t>(i + 8)] =
        static_cast<std::uint8_t>(hi >> (8 * i));
  }
  return out;
}

}  // namespace sld::crypto
