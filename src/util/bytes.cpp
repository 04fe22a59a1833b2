#include "util/bytes.hpp"

#include <bit>
#include <cstring>

namespace sld::util {

std::uint8_t ByteReader::u8() {
  require(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  require(2);
  const auto lo = static_cast<std::uint16_t>(data_[pos_]);
  const auto hi = static_cast<std::uint16_t>(data_[pos_ + 1]);
  pos_ += 2;
  return static_cast<std::uint16_t>(lo | (hi << 8));
}

std::uint32_t ByteReader::u32() {
  const auto lo = static_cast<std::uint32_t>(u16());
  const auto hi = static_cast<std::uint32_t>(u16());
  return lo | (hi << 16);
}

std::uint64_t ByteReader::u64() {
  const auto lo = static_cast<std::uint64_t>(u32());
  const auto hi = static_cast<std::uint64_t>(u32());
  return lo | (hi << 32);
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

Bytes ByteReader::bytes(std::size_t n) {
  require(n);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

Bytes ByteReader::sized_bytes() {
  const std::uint32_t n = u32();
  return bytes(n);
}

std::string to_hex(std::span<const std::uint8_t> data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (const std::uint8_t b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

}  // namespace sld::util
