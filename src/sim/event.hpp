// Event queue for the discrete-event simulator: a monotone radix queue of
// time-ordered actions. Events pop in (when, seq) order, which keeps runs
// deterministic.
//
// Sequence numbers: every push takes the next 32-bit `seq`, so same-time
// events pop in push order. A planned series (a node's probes or queries,
// the colluders' flood) calls reserve(n) instead of pushing n events: it
// takes the n numbers those pushes would have taken, and each event of
// the series is pushed later, by its predecessor, with push_reserved.
// Only the next event of a series waits in the queue, yet it orders among
// its same-time peers exactly as if it had been pushed when reserved, so
// a chained series pops like the up-front one. Running out of numbers
// (2^32 between clears) throws std::overflow_error instead of wrapping.
//
// Contract: a push may not be earlier than the last popped time, which
// starts at 0 (the scheduler's start) and returns there on clear(); such a
// push throws std::logic_error and leaves the queue as it was. The
// scheduler never schedules before its clock, so it always keeps this
// contract. A reserved push orders by its number among the events still
// pending; a chain keeps each link behind its predecessor. An action runs
// inside its slot, so clear() (and the queue's destruction) may not happen
// from inside a running action.
//
// Layout: 64 buckets of 16-byte (when, slot, seq) items; each action waits
// in a pooled slot (sim/slot_pool.hpp) as a small-buffer Action
// (sim/action.hpp), so scheduling a typical closure allocates nothing.
// push moves the action once, into its slot, and run_next runs it there,
// so a scheduled callable moves twice between the caller and its run:
// into the Action, then into the slot.
// Bucket 0 holds the events at the last popped time in seq order, read
// through an index. Bucket b >= 1 holds the events whose time first
// differs from the last popped time at bit b - 1 (times are non-negative,
// so bit 63 never differs), so every event in a lower bucket is earlier
// than every event in a higher one. Each bucket keeps its minimum, and a
// 64-bit mask marks the occupied buckets 1..63.
// When bucket 0 runs dry, run_next takes the lowest occupied bucket's
// minimum as the new base time and moves that bucket's items down; the items
// equal to it land in bucket 0. Items of equal time always share a bucket
// and every move keeps their order, so they arrive in push order, which
// is seq order unless reserved pushes joined them: only then is bucket 0
// sorted by seq. A reserved push at the last popped time is inserted at
// its place in bucket 0. An item only ever moves to a lower bucket, so it
// moves at most 63 times; a push never moves anything. A bucket's first
// allocation holds 256 items (4 KB) and it keeps its capacity, so a
// paper-scale trial's buckets settle after a few doublings each.
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

/// Events ordered by (when, seq); see the contract above.
class EventQueue {
 public:
  /// Sequence numbers handed out between clears.
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1} << 32;

  void push(SimTime when, Action&& action) {
    push(when, when, std::move(action));
  }

  /// Pushes under the next sequence number. `queued_at` is the clock
  /// value at schedule time; the wait histogram observes `when -
  /// queued_at` when the event is taken. Throws std::logic_error if
  /// `when` is earlier than the last popped time, and std::overflow_error
  /// if the sequence numbers are used up.
  void push(SimTime when, SimTime queued_at, Action&& action);

  /// Takes the next `n` sequence numbers, the ones `n` pushes made now
  /// would take, and returns the first. Throws std::overflow_error if
  /// fewer than `n` are left.
  std::uint32_t reserve(std::uint64_t n);

  /// Pushes under `seq`, a number reserve() handed out, so the event
  /// orders as if it had been pushed when the number was reserved
  /// (`queued_at` should be that time). Throws like push, and
  /// std::logic_error if `seq` was never handed out.
  void push_reserved(SimTime when, SimTime queued_at, std::uint32_t seq,
                     Action&& action);

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
    std::uint32_t seq = 0;  // in the padding: the item stays 16 bytes
  };
  static_assert(sizeof(Item) == 16);
  static bool by_seq(const Item& a, const Item& b) { return a.seq < b.seq; }
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

  /// Checks `when` against the last pop, moves `action` into a free slot
  /// and returns its item.
  Item store(SimTime when, SimTime queued_at, std::uint32_t seq,
             Action&& action);
  /// Appends `item` to its bucket relative to `last_`.
  void place(const Item& item);
  /// Counts a stored item and observes the depth.
  void note_push();
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
  std::uint64_t next_seq_ = 0;  // the next push's sequence number
  SlotPool<Slot> slots_;
  std::uint64_t moves_ = 0;
  HotStats* hot_ = nullptr;
};

}  // namespace sld::sim
