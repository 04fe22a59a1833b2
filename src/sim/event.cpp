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

auto EventQueue::store(SimTime when, SimTime queued_at, std::uint32_t seq,
                       Action&& action) -> Item {
  if (when < last_)
    throw std::logic_error("EventQueue::push: time before the last pop");
  const std::uint32_t slot = slots_.acquire();
  Slot& waiting = slots_[slot];
  waiting.action = std::move(action);
  waiting.queued_at = queued_at;
  return Item{when, slot, seq};
}

void EventQueue::note_push() {
  ++size_;
  if (hot_ != nullptr && hot_->queue_depth != nullptr)
    hot_->queue_depth->observe(static_cast<double>(size_));
}

void EventQueue::push(SimTime when, SimTime queued_at, Action&& action) {
  SLD_MEM_SCOPE("scheduler");
  if (next_seq_ == kSeqLimit)
    throw std::overflow_error("EventQueue::push: sequence numbers used up");
  place(store(when, queued_at, static_cast<std::uint32_t>(next_seq_),
              std::move(action)));
  ++next_seq_;
  note_push();
}

std::uint32_t EventQueue::reserve(std::uint64_t n) {
  if (n > kSeqLimit - next_seq_)
    throw std::overflow_error("EventQueue::reserve: sequence numbers used up");
  const auto first = static_cast<std::uint32_t>(next_seq_);
  next_seq_ += n;
  return first;
}

void EventQueue::push_reserved(SimTime when, SimTime queued_at,
                               std::uint32_t seq, Action&& action) {
  SLD_MEM_SCOPE("scheduler");
  if (seq >= next_seq_)
    throw std::logic_error("EventQueue::push_reserved: seq not reserved");
  const Item item = store(when, queued_at, seq, std::move(action));
  if (when != last_) {
    place(item);
  } else {
    // Bucket 0 is being read in seq order: join it at this seq's place
    // among the events still pending.
    std::vector<Item>& ready = buckets_[0];
    if (ready.size() == ready.capacity())
      ready.reserve(std::max(2 * ready.capacity(), kFirstCapacity));
    const auto pending = ready.begin() + static_cast<std::ptrdiff_t>(head_);
    ready.insert(std::upper_bound(pending, ready.end(), item, by_seq), item);
  }
  note_push();
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
  // Equal times arrive in push order, which reserved pushes can break.
  std::vector<Item>& ready = buckets_[0];
  if (!std::is_sorted(ready.begin(), ready.end(), by_seq))
    std::sort(ready.begin(), ready.end(), by_seq);
  return moved;
}

auto EventQueue::take() -> Item {
  if (size_ == 0) throw std::logic_error("EventQueue::run_next: empty");
  std::vector<Item>& ready = buckets_[0];
  const std::uint64_t moved = head_ == ready.size() ? refill() : 0;
  const Item item = ready[head_++];
  if (head_ == ready.size()) {
    ready.clear();
    head_ = 0;
  }
  --size_;
  moves_ += moved;
  if (hot_ != nullptr) {
    if (hot_->sift_down != nullptr)
      hot_->sift_down->observe(static_cast<double>(moved));
    if (hot_->event_wait_ns != nullptr)
      hot_->event_wait_ns->observe(
          static_cast<double>(item.when - slots_[item.slot].queued_at));
  }
  return item;
}

void EventQueue::clear() {
  for (std::vector<Item>& bucket : buckets_) bucket.clear();
  occupied_ = 0;
  head_ = 0;
  last_ = 0;
  size_ = 0;
  next_seq_ = 0;
  slots_.clear();
  moves_ = 0;
}

}  // namespace sld::sim
