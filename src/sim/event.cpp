#include "sim/event.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "obs/memstats.hpp"

namespace sld::sim {

void EventQueue::place(const Item& item) {
  // Times at or after last_ compare like their bit patterns above the
  // first differing bit, so that bit picks the bucket (0: equal).
  const auto b = static_cast<std::size_t>(std::bit_width(
      static_cast<std::uint64_t>(item.when ^ last_)));
  if (b != 0) {
    const std::uint64_t bit = std::uint64_t{1} << (b - 1);
    if ((occupied_ & bit) == 0 || item.when < mins_[b]) mins_[b] = item.when;
    occupied_ |= bit;
  }
  std::vector<Item>& bucket = buckets_[b];
  if (bucket.size() == bucket.capacity())
    bucket.reserve(std::max(2 * bucket.capacity(), kFirstCapacity));
  bucket.push_back(item);
}

void EventQueue::push(SimTime when, SimTime queued_at, Action action) {
  SLD_MEM_SCOPE("scheduler");
  if (when < last_)
    throw std::logic_error("EventQueue::push: time before the last pop");
  const std::uint32_t slot = slots_.acquire();
  slots_[slot] = Slot{std::move(action), queued_at};
  place(Item{when, slot});
  ++size_;
  if (hot_ != nullptr && hot_->queue_depth != nullptr)
    hot_->queue_depth->observe(static_cast<double>(size_));
}

SimTime EventQueue::next_time() const {
  if (head_ < buckets_[0].size()) return last_;
  if (occupied_ == 0) throw std::logic_error("EventQueue::next_time: empty");
  return mins_[static_cast<std::size_t>(std::countr_zero(occupied_)) + 1];
}

std::uint64_t EventQueue::refill() {
  SLD_MEM_SCOPE("scheduler");
  const auto b = static_cast<std::size_t>(std::countr_zero(occupied_)) + 1;
  occupied_ &= occupied_ - 1;
  last_ = mins_[b];
  // Every item here shares the bits above b - 1 with the new base, so
  // each lands in a bucket below b, and in this order.
  std::vector<Item>& from = buckets_[b];
  for (const Item& item : from) place(item);
  const std::uint64_t moved = from.size();
  from.clear();
  return moved;
}

Event EventQueue::pop() {
  if (size_ == 0) throw std::logic_error("EventQueue::pop: empty");
  std::vector<Item>& ready = buckets_[0];
  const std::uint64_t moved = head_ == ready.size() ? refill() : 0;
  const Item item = ready[head_++];
  if (head_ == ready.size()) {
    ready.clear();
    head_ = 0;
  }
  --size_;
  Slot& slot = slots_[item.slot];
  Event out{item.when, slot.queued_at, std::move(slot.action)};
  slots_.release(item.slot);
  moves_ += moved;
  if (hot_ != nullptr) {
    if (hot_->sift_down != nullptr)
      hot_->sift_down->observe(static_cast<double>(moved));
    if (hot_->event_wait_ns != nullptr)
      hot_->event_wait_ns->observe(
          static_cast<double>(out.when - out.queued_at));
  }
  return out;
}

void EventQueue::clear() {
  for (std::vector<Item>& bucket : buckets_) bucket.clear();
  occupied_ = 0;
  head_ = 0;
  last_ = 0;
  size_ = 0;
  slots_.clear();
  moves_ = 0;
}

}  // namespace sld::sim
