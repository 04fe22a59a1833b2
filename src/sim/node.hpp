// Base class for every device participating in the simulation. Protocol
// behaviour (beacon, sensor, detecting node, attacker) lives in subclasses;
// the base class owns identity, physics (position, range), and wiring to
// the channel/scheduler.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "sim/message.hpp"
#include "sim/scheduler.hpp"
#include "util/geometry.hpp"

namespace sld::sim {

class Channel;

class Node {
 public:
  Node(NodeId id, util::Vec2 position, double range_ft);
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  const util::Vec2& position() const { return position_; }
  double range() const { return range_; }

  /// True for beacon nodes (their IDs are recognisable as beacon IDs).
  virtual bool is_beacon() const { return false; }

  /// Invoked by the channel when an authentic-looking packet addressed to
  /// this node arrives. MAC verification is the receiver's job.
  virtual void on_message(const Delivery& delivery) = 0;

  /// Invoked once when the simulation starts; schedule initial work here.
  virtual void start() {}

  /// Wires the node to its environment; called by Network, which numbers
  /// its nodes 0, 1, 2, ... in registration order.
  void attach(Channel* channel, Scheduler* scheduler, std::size_t index);

  /// The registration index Network gave this node. The channel's and the
  /// neighbour table's per-node arrays are indexed by it.
  std::size_t index() const { return index_; }

  /// True while the node is inside a crash window whose transition has
  /// fired (Network::start_all schedules the transitions).
  bool is_down() const { return down_; }

  /// Number of times the node has rebooted. Timers remember the epoch they
  /// were scheduled in and refuse to fire after a reboot.
  std::uint32_t boot_epoch() const { return boot_epoch_; }

  /// Node-owned timers dropped because the node crashed or rebooted.
  std::uint64_t timers_dropped() const { return timers_dropped_; }

  /// Crash transition: marks the node down and runs on_crash. Called by
  /// Network.
  void crash_now();

  /// Reboot transition: marks the node up, bumps the boot epoch (dropping
  /// every timer scheduled before the crash), emits a `node.reboot` trace
  /// event, and runs on_reboot. Called by Network.
  void reboot_now();

  /// The device loses power at `now`: volatile state is gone. A node that
  /// models state loss drops its pending transactions here; it must not
  /// schedule events (it is down). The default keeps nothing to lose.
  virtual void on_crash(SimTime /*now*/) {}

  /// The device reboots at `now` after `downtime` ns offline. A node
  /// re-establishes whatever schedule a freshly booted device would;
  /// timers scheduled before the crash were invalidated by the boot-epoch
  /// bump. The default has nothing to restart.
  virtual void on_reboot(SimTime /*now*/, SimTime /*downtime*/) {}

 protected:
  Channel& channel() const;
  Scheduler& scheduler() const;

  /// Schedules `action` to run `delay` ns from now as a timer owned by
  /// this node: the action is dropped — never executed — if the node is
  /// down when the timer fires or has rebooted since it was scheduled
  /// (volatile timer state does not survive a crash).
  template <typename F>
  void schedule_timer(SimTime delay, F&& action) {
    schedule_timer_at(scheduler().now() + delay, std::forward<F>(action));
  }

  /// Absolute-time variant of schedule_timer.
  template <typename F>
  void schedule_timer_at(SimTime when, F&& action) {
    scheduler().schedule_at(
        when, [this, epoch = boot_epoch_, action = std::forward<F>(action)]() {
          if (timer_may_fire(epoch)) action();
        });
  }

  /// Plans `count` timers owned by this node, `step` apart after `start`:
  /// timer k (from 0) runs `action(k)` at `start + (k + 1) * step`. They
  /// run, and are dropped, exactly as `count` schedule_timer_at calls made
  /// now would, but only the next one waits in the queue: the series
  /// reserves its places among same-time events now, and each timer
  /// schedules its successor, also when the fence drops it. Throws
  /// std::invalid_argument if `start` is before now or `step` is negative,
  /// and std::overflow_error if the last time does not fit SimTime.
  template <typename F>
  void schedule_timer_series(SimTime start, SimTime step, std::size_t count,
                             F action) {
    check_series(start, step, count);
    if (count == 0) return;
    const Scheduler::Reservation series = scheduler().reserve(count);
    scheduler().schedule_reserved(
        start + step, series, 0,
        SeriesTimer<F>{this, series, step, 0, boot_epoch_, std::move(action)});
  }

 private:
  /// One timer of a series: it schedules the next, then runs its fence.
  /// 48 bytes with a one-pointer action, so it fits an Action's buffer.
  template <typename F>
  struct SeriesTimer {
    Node* node;
    Scheduler::Reservation series;
    SimTime step;
    std::uint32_t k;
    std::uint32_t epoch;
    F action;

    void operator()() {
      Scheduler& sched = *node->scheduler_;
      if (k + 1 < series.count) {
        SeriesTimer next = *this;
        ++next.k;
        sched.schedule_reserved(sched.now() + step, series, next.k,
                                std::move(next));
      }
      if (node->timer_may_fire(epoch)) action(k);
    }
  };

  /// The argument checks of schedule_timer_series.
  void check_series(SimTime start, SimTime step, std::size_t count) const;

  /// The fence in front of every node timer: false, with the timer counted
  /// in timers_dropped(), if the node rebooted after `epoch` or is down now.
  bool timer_may_fire(std::uint32_t epoch);

  /// True if the node may act at time `now`: neither dynamically down nor
  /// inside a statically configured crash window.
  bool alive_at(SimTime now) const;

  NodeId id_;
  util::Vec2 position_;
  double range_;
  Channel* channel_ = nullptr;
  Scheduler* scheduler_ = nullptr;
  std::size_t index_ = 0;
  bool down_ = false;
  SimTime crash_time_ = 0;
  std::uint32_t boot_epoch_ = 0;
  std::uint64_t timers_dropped_ = 0;
};

}  // namespace sld::sim
