// The simulation clock + run loop.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/event.hpp"
#include "sim/time.hpp"

namespace sld::sim {

/// Owns virtual time and the event queue; advances time by executing events
/// in (time, sequence) order: same-time events run in the order they were
/// scheduled, or reserved (see sim/event.hpp).
class Scheduler {
 public:
  using TimeProbe = std::function<void(SimTime)>;

  /// The places of `count` events planned at `planned_at` among their
  /// same-time peers; event k of the series is scheduled later with
  /// schedule_reserved.
  struct Reservation {
    SimTime planned_at = 0;
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };

  SimTime now() const { return now_; }

  /// Observer invoked with the new clock value whenever time advances —
  /// after the decision to move the clock, before any event at the new
  /// time executes (so the observer sees strictly pre-t state). This is
  /// how the time-series sampler closes windows without scheduling a
  /// single event: the run loop stays event-for-event identical, and an
  /// empty probe (the default) costs one cached branch per event.
  void set_time_probe(TimeProbe probe) {
    probe_ = std::move(probe);
    probe_on_ = static_cast<bool>(probe_);
  }

  /// Schedules `action` at absolute time `when` (>= now). Closures of up
  /// to Action::kInlineBytes are stored without allocating. The action is
  /// moved once more, into the queue's slot, and runs there.
  void schedule_at(SimTime when, Action action);

  /// Schedules `action` `delay` nanoseconds from now (delay >= 0, and
  /// now + delay within SimTime's range).
  void schedule_after(SimTime delay, Action action);

  /// Reserves the places of `count` events planned now, the ones `count`
  /// schedule_at calls made now would take. Throws std::overflow_error
  /// when the queue's sequence numbers run out.
  Reservation reserve(std::size_t count);

  /// Schedules event `k` of `series` at `when` (>= now). It runs among
  /// the events at `when` as if scheduled when the series was reserved,
  /// and its wait is counted from then.
  void schedule_reserved(SimTime when, const Reservation& series,
                         std::uint32_t k, Action action);

  /// Runs until the queue is empty or `max_events` have executed.
  /// Returns the number of events executed.
  std::uint64_t run(std::uint64_t max_events = ~0ULL);

  /// Runs events with time <= `until`. Time advances to `until` even if
  /// the queue drains earlier. Returns the number of events executed.
  std::uint64_t run_until(SimTime until);

  bool idle() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }

  /// Total events executed since construction (or the last reset()).
  std::uint64_t executed() const { return executed_; }

  /// High-water mark of the pending-event queue depth.
  std::size_t max_pending() const { return max_pending_; }

  /// Optional hot-path micro-counter sink (queue depth, bucket moves per
  /// pop, event wait), forwarded to the event queue. Not owned; nullptr
  /// turns recording back off.
  void set_hot_stats(HotStats* hot) { queue_.set_hot_stats(hot); }

  /// Event-queue items moved between buckets since construction / reset().
  std::uint64_t sift_down_steps() const { return queue_.sift_down_steps(); }

  /// Drops all pending events and resets time and counters to zero. An
  /// event's action runs inside the queue's storage, so reset() may not
  /// be called from inside one.
  void reset();

 private:
  void note_depth() {
    if (queue_.size() > max_pending_) max_pending_ = queue_.size();
  }

  /// Moves the clock to `when` (never backwards), firing the time probe
  /// first when it advances.
  void advance_clock(SimTime when);

  SimTime now_ = 0;
  EventQueue queue_;
  std::uint64_t executed_ = 0;
  std::size_t max_pending_ = 0;
  TimeProbe probe_;
  bool probe_on_ = false;
};

}  // namespace sld::sim
