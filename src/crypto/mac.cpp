#include "crypto/mac.hpp"


namespace sld::crypto {

namespace {
void store_le32(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
}  // namespace

MacTag compute_mac(const Key128& key, std::uint32_t src, std::uint32_t dst,
                   std::span<const std::uint8_t> payload) {
  // The tag covers the little-endian (src, dst, length) header followed by
  // the payload, streamed into one SipHash rather than copied together.
  std::uint8_t header[12];
  store_le32(header, src);
  store_le32(header + 4, dst);
  store_le32(header + 8, static_cast<std::uint32_t>(payload.size()));
  SipHasher h(key);
  h.update(header);
  h.update(payload);
  return h.finish();
}

bool verify_mac(const Key128& key, std::uint32_t src, std::uint32_t dst,
                std::span<const std::uint8_t> payload, MacTag tag) {
  const MacTag expected = compute_mac(key, src, dst, payload);
  // Branch-free comparison; in the simulator this is about API shape, not
  // a real timing defence.
  return ((expected ^ tag) | (tag ^ expected)) == 0;
}

}  // namespace sld::crypto
