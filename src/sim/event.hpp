// Event queue for the discrete-event simulator: a monotone radix queue of
// time-ordered actions. Same-time events pop in push order (FIFO), which
// keeps runs deterministic.
//
// Contract: a push may not be earlier than the last popped time, which
// starts at 0 (the scheduler's start) and returns there on clear(); such a
// push throws std::logic_error and leaves the queue as it was. The
// scheduler never schedules before its clock, so it always keeps this
// contract. An action runs inside its slot, so clear() (and the queue's
// destruction) may not happen from inside a running action.
//
// Layout: 64 buckets of 16-byte (when, slot) items; each action waits in a
// pooled slot (sim/slot_pool.hpp) as a small-buffer Action
// (sim/action.hpp), so scheduling a typical closure allocates nothing.
// push moves the action once, into its slot, and run_next runs it there,
// so a scheduled callable moves twice between the caller and its run:
// into the Action, then into the slot.
// Bucket 0 holds the events at the last popped time, read in FIFO order
// through an index. Bucket b >= 1 holds the events whose time first
// differs from the last popped time at bit b - 1 (times are non-negative,
// so bit 63 never differs), so every event in a lower bucket is earlier
// than every event in a higher one. Each bucket keeps its minimum, and a
// 64-bit mask marks the occupied buckets 1..63.
// When bucket 0 runs dry, run_next takes the lowest occupied bucket's
// minimum as the new base time and moves that bucket's items down; the items
// equal to it land in bucket 0. Items of equal time always share a bucket
// and every move keeps their order, so pops follow (when, push order)
// exactly. An item only ever moves to a lower bucket, so it moves at most
// 63 times; a push never moves anything. A bucket's first allocation holds
// 256 items (4 KB) and it keeps its capacity, so a paper-scale trial's
// buckets settle after a few doublings each.
//
// The move count is observable (sift_down_steps(), the hot.sift_down
// histogram), and the bench goldens and exact counters pin it: a change
// to the bucket rule must re-pin them. The totals are always counted; the
// per-event histograms record only when a HotStats sink is wired.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/action.hpp"
#include "sim/hotstats.hpp"
#include "sim/slot_pool.hpp"
#include "sim/time.hpp"

namespace sld::sim {

/// Events ordered by (when, push order); see the contract above.
class EventQueue {
 public:
  void push(SimTime when, Action&& action) {
    push(when, when, std::move(action));
  }

  /// `queued_at` is the clock value at schedule time; the wait histogram
  /// observes `when - queued_at` when the event is taken. Throws
  /// std::logic_error if `when` is earlier than the last popped time.
  void push(SimTime when, SimTime queued_at, Action&& action);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Time of the earliest event; queue must be non-empty. Moves nothing:
  /// a later push may still land between the last pop and this time.
  SimTime next_time() const;

  /// Takes the earliest event out of the queue (throws std::logic_error
  /// if it is empty), calls `on_time(when)`, then runs the action in its
  /// slot and frees the slot, also when `on_time` or the action throws.
  /// The running slot is not free, so the action may push: a nested push
  /// takes another slot, and slots never move.
  template <typename OnTime>
  void run_next(OnTime&& on_time) {
    const Item item = take();
    const SlotRelease release{slots_, item.slot};
    on_time(item.when);
    slots_[item.slot].action();
  }

  /// Drops (destroys) every pending action and resets the counters. Not
  /// from inside a running action (see the contract above).
  void clear();

  /// Optional micro-counter sink (see sim/hotstats.hpp). Not owned; must
  /// outlive the queue or be reset to nullptr.
  void set_hot_stats(HotStats* hot) { hot_ = hot; }

  /// Items moved between buckets since construction / clear().
  std::uint64_t sift_down_steps() const { return moves_; }

 private:
  struct Item {
    SimTime when = 0;
    std::uint32_t slot = 0;
  };
  struct Slot {
    Action action;
    SimTime queued_at = 0;
  };
  /// Frees a taken event's slot (destroying its action) when the run ends.
  struct SlotRelease {
    SlotPool<Slot>& slots;
    std::uint32_t slot;
    ~SlotRelease() { slots.release(slot); }
  };
  static constexpr std::size_t kBuckets = 64;
  static constexpr std::size_t kFirstCapacity = 256;

  /// Appends `item` to its bucket relative to `last_`.
  void place(const Item& item);
  /// Unlinks the earliest item and observes its moves and wait; its slot
  /// stays taken until run_next releases it.
  Item take();
  /// Empties the lowest occupied bucket into the lower ones, making its
  /// minimum the base time; returns the number of items moved.
  std::uint64_t refill();

  std::array<std::vector<Item>, kBuckets> buckets_;
  std::array<SimTime, kBuckets> mins_{};
  std::uint64_t occupied_ = 0;  // bit b - 1 set: bucket b is non-empty
  std::size_t head_ = 0;        // next unread item of bucket 0
  SimTime last_ = 0;            // the last popped time
  std::size_t size_ = 0;
  SlotPool<Slot> slots_;
  std::uint64_t moves_ = 0;
  HotStats* hot_ = nullptr;
};

}  // namespace sld::sim
