#include "sim/event.hpp"

#include <stdexcept>
#include <utility>

#include "obs/memstats.hpp"

namespace sld::sim {

void EventQueue::push(SimTime when, SimTime queued_at, Action action) {
  SLD_MEM_SCOPE("scheduler");
  const std::uint32_t slot = slots_.acquire();
  slots_[slot] = Slot{std::move(action), queued_at};
  heap_.push_back(Key{when, next_seq_++, slot});
  // Sift up: hole-based (move the parent down until the slot is found),
  // one element move per level crossed.
  std::size_t i = heap_.size() - 1;
  const Key ev = heap_[i];
  std::uint64_t steps = 0;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!later(heap_[parent], ev)) break;
    heap_[i] = heap_[parent];
    i = parent;
    ++steps;
  }
  heap_[i] = ev;
  sift_up_steps_ += steps;
  if (hot_ != nullptr) {
    if (hot_->sift_up != nullptr)
      hot_->sift_up->observe(static_cast<double>(steps));
    if (hot_->queue_depth != nullptr)
      hot_->queue_depth->observe(static_cast<double>(heap_.size()));
  }
}

SimTime EventQueue::next_time() const {
  if (heap_.empty()) throw std::logic_error("EventQueue::next_time: empty");
  return heap_.front().when;
}

Event EventQueue::pop() {
  if (heap_.empty()) throw std::logic_error("EventQueue::pop: empty");
  const Key top = heap_.front();
  std::uint64_t steps = 0;
  if (heap_.size() > 1) {
    // Sift the last element down from the root.
    const Key ev = heap_.back();
    heap_.pop_back();
    std::size_t i = 0;
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t left = 2 * i + 1;
      if (left >= n) break;
      const std::size_t right = left + 1;
      std::size_t smallest = left;
      if (right < n && later(heap_[left], heap_[right])) smallest = right;
      if (!later(ev, heap_[smallest])) break;
      heap_[i] = heap_[smallest];
      i = smallest;
      ++steps;
    }
    heap_[i] = ev;
  } else {
    heap_.pop_back();
  }
  Slot& slot = slots_[top.slot];
  Event out{top.when, top.seq, slot.queued_at, std::move(slot.action)};
  slots_.release(top.slot);
  sift_down_steps_ += steps;
  if (hot_ != nullptr) {
    if (hot_->sift_down != nullptr)
      hot_->sift_down->observe(static_cast<double>(steps));
    if (hot_->event_wait_ns != nullptr)
      hot_->event_wait_ns->observe(
          static_cast<double>(out.when - out.queued_at));
  }
  return out;
}

void EventQueue::clear() {
  heap_.clear();
  slots_.clear();
  next_seq_ = 0;
  sift_up_steps_ = 0;
  sift_down_steps_ = 0;
}

}  // namespace sld::sim
