// Pooled storage for objects that must stay put while they are live: the
// event queue's actions and the channel's in-flight deliveries.
//
// Objects live in fixed-size chunks that are never reallocated, so a
// reference to a slot survives any number of later acquires (a delivery
// handler may send, and an action running in its slot may schedule, and
// so acquire, while its own slot is in use), and
// growing the pool never copies what it holds. (A doubling vector would
// move live objects, and its growth slack raised the peak RSS of a
// 16,000-node trial from 68 to 90 MB.) Released slots are reused
// last-in first-out.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace sld::sim {

template <typename T>
class SlotPool {
 public:
  /// A free slot index. The slot holds a default-constructed T, except
  /// that a trivially destructible T keeps what its last user left there
  /// (the caller overwrites it).
  std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    if (size_ % kChunk == 0) {
      chunks_.push_back(std::make_unique<T[]>(kChunk));
      // Room for every slot on the free list, so release never allocates
      // (grown geometrically: a 16k-node trial adds hundreds of chunks).
      const std::size_t slots = chunks_.size() * kChunk;
      if (free_.capacity() < slots)
        free_.reserve(std::max(slots, 2 * free_.capacity()));
    }
    return size_++;
  }

  T& operator[](std::uint32_t slot) {
    return chunks_[slot / kChunk][slot % kChunk];
  }

  /// Returns `slot` to the pool, resetting a non-trivially destructible
  /// object to T{} (an Action's callable is destroyed here). Never
  /// allocates.
  void release(std::uint32_t slot) {
    if constexpr (!std::is_trivially_destructible_v<T>) (*this)[slot] = T{};
    free_.push_back(slot);
  }

  /// Destroys every object, live or not, and frees the chunks.
  void clear() {
    chunks_.clear();
    free_.clear();
    size_ = 0;
  }

 private:
  static constexpr std::size_t kChunk = 512;

  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t size_ = 0;
};

}  // namespace sld::sim
