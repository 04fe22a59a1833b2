// Event queue for the discrete-event simulator: a min-heap of (time, seq)
// ordered actions. The sequence number makes same-time events FIFO, which
// keeps runs deterministic.
//
// The heap sifts 24-byte (when, seq, slot) keys; each action waits in a
// pooled slot (sim/slot_pool.hpp) as a small-buffer Action
// (sim/action.hpp), so scheduling a typical closure allocates nothing.
// The heap is explicit (vector + hand-rolled sift) rather than a
// std::priority_queue so the sift distances are observable. The
// (when, seq) key is a strict total order, so the pop sequence is fixed,
// and the bench goldens and exact counters pin the sift-step count of
// every push and pop: a change of heap shape or sift must re-pin them.
// Sift-step totals are always counted (two integer adds per operation);
// per-operation histograms cost one extra branch and only record when a
// HotStats sink is wired.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/action.hpp"
#include "sim/hotstats.hpp"
#include "sim/slot_pool.hpp"
#include "sim/time.hpp"

namespace sld::sim {

/// A popped event.
struct Event {
  SimTime when = 0;
  std::uint64_t seq = 0;  // tie-break: FIFO among same-time events
  SimTime queued_at = 0;  // schedule time, for event-wait accounting
  Action action;
};

/// Min-heap of events ordered by (when, seq).
class EventQueue {
 public:
  void push(SimTime when, Action action) {
    push(when, when, std::move(action));
  }

  /// `queued_at` is the clock value at schedule time; the wait histogram
  /// observes `when - queued_at` at pop.
  void push(SimTime when, SimTime queued_at, Action action);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Time of the earliest event; queue must be non-empty.
  SimTime next_time() const;

  /// Removes and returns the earliest event; queue must be non-empty.
  Event pop();

  /// Drops (destroys) every pending action and resets the counters.
  void clear();

  /// Optional micro-counter sink (see sim/hotstats.hpp). Not owned; must
  /// outlive the queue or be reset to nullptr.
  void set_hot_stats(HotStats* hot) { hot_ = hot; }

  /// Total sift steps (element moves) since construction / clear().
  std::uint64_t sift_up_steps() const { return sift_up_steps_; }
  std::uint64_t sift_down_steps() const { return sift_down_steps_; }

 private:
  struct Key {
    SimTime when = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };
  struct Slot {
    Action action;
    SimTime queued_at = 0;
  };

  /// True when `a` must pop after `b` — the same strict weak ordering the
  /// previous std::priority_queue comparator induced.
  static bool later(const Key& a, const Key& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }

  std::vector<Key> heap_;
  SlotPool<Slot> slots_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t sift_up_steps_ = 0;
  std::uint64_t sift_down_steps_ = 0;
  HotStats* hot_ = nullptr;
};

}  // namespace sld::sim
