// Little-endian byte serialization for wire messages. Kept deliberately
// simple: fixed-width integers, doubles (IEEE-754 bit pattern), and raw
// byte spans. Reads are bounds-checked and throw on truncation, which the
// message layer converts into "malformed packet, drop".
//
// The writer is templated on its output: a growing `Bytes` vector, or an
// `InlineBytes<N>` whose N bytes live inside the object (the wire payload,
// so a message never touches the allocator). Writing past an inline
// buffer's capacity throws `BufferOverflow`.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace sld::util {

using Bytes = std::vector<std::uint8_t>;

/// Thrown by ByteReader when a read runs past the end of the buffer.
class TruncatedBuffer : public std::runtime_error {
 public:
  TruncatedBuffer() : std::runtime_error("truncated buffer") {}
};

/// Thrown when a write runs past the end of a fixed-capacity buffer.
class BufferOverflow : public std::length_error {
 public:
  BufferOverflow() : std::length_error("buffer overflow") {}
};

/// Up to N bytes stored inline: a contiguous range (converts to
/// std::span<const std::uint8_t>) that never allocates.
template <std::size_t N>
class InlineBytes {
  static_assert(N <= std::numeric_limits<std::uint8_t>::max(),
                "InlineBytes: the length is stored in one byte");

 public:
  static constexpr std::size_t kCapacity = N;

  InlineBytes() = default;
  InlineBytes(std::initializer_list<std::uint8_t> init) {
    for (const std::uint8_t b : init) push_back(b);
  }

  void push_back(std::uint8_t b) {
    if (size_ == N) throw BufferOverflow();
    data_[size_++] = b;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const std::uint8_t* data() const { return data_.data(); }
  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + size_; }
  std::uint8_t& operator[](std::size_t i) { return data_[i]; }
  std::uint8_t operator[](std::size_t i) const { return data_[i]; }

  friend bool operator==(const InlineBytes& a, const InlineBytes& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::array<std::uint8_t, N> data_{};
  std::uint8_t size_ = 0;
};

/// Appends little-endian encoded values to `Out` (anything with
/// push_back(std::uint8_t): `Bytes` or `InlineBytes<N>`).
template <typename Out>
class BasicByteWriter {
 public:
  BasicByteWriter() = default;

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void bytes(std::span<const std::uint8_t> data) {
    for (const std::uint8_t b : data) u8(b);
  }
  /// Length-prefixed (u32) byte string.
  void sized_bytes(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    bytes(data);
  }

  const Out& data() const { return out_; }
  Out take() { return std::move(out_); }
  std::size_t size() const { return out_.size(); }

 private:
  Out out_;
};

using ByteWriter = BasicByteWriter<Bytes>;

/// Reads little-endian encoded values from a byte span.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  Bytes bytes(std::size_t n);
  /// Length-prefixed (u32) byte string.
  Bytes sized_bytes();

  std::size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return remaining() == 0; }

 private:
  void require(std::size_t n) const {
    if (remaining() < n) throw TruncatedBuffer();
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Hex rendering for debugging / logging.
std::string to_hex(std::span<const std::uint8_t> data);

}  // namespace sld::util
