#include "sim/node.hpp"

#include <cmath>
#include <stdexcept>

#include "check/invariant.hpp"
#include "sim/channel.hpp"

namespace sld::sim {

Node::Node(NodeId id, util::Vec2 position, double range_ft)
    : id_(id), position_(position), range_(range_ft) {
  if (!(range_ft > 0.0 && std::isfinite(range_ft)))
    throw std::invalid_argument("Node: range_ft must be finite and positive");
}

void Node::attach(Channel* channel, Scheduler* scheduler, std::size_t index) {
  if (channel == nullptr || scheduler == nullptr)
    throw std::invalid_argument("Node::attach: null environment");
  channel_ = channel;
  scheduler_ = scheduler;
  index_ = index;
}

Channel& Node::channel() const {
  if (channel_ == nullptr) throw std::logic_error("Node: not attached");
  return *channel_;
}

Scheduler& Node::scheduler() const {
  if (scheduler_ == nullptr) throw std::logic_error("Node: not attached");
  return *scheduler_;
}

bool Node::alive_at(SimTime now) const {
  if (down_) return false;
  // Static crash windows cover tests that drive the channel without
  // Network::start_all (no transition events): a timer may never act
  // inside a configured window even if crash_now() was never called.
  if (channel_ != nullptr && channel_->faults().enabled() &&
      channel_->faults().node_crashed(id_, now))
    return false;
  return true;
}

bool Node::timer_may_fire(std::uint32_t epoch) {
  if (epoch != boot_epoch_ || !alive_at(scheduler_->now())) {
    ++timers_dropped_;
    return false;
  }
  SLD_INVARIANT(!down_ && !(channel_ != nullptr &&
                            channel_->faults().enabled() &&
                            channel_->faults().node_crashed(
                                id_, scheduler_->now())),
                "node timer fired while its owner is down");
  return true;
}

void Node::crash_now() {
  if (down_) return;
  down_ = true;
  crash_time_ = scheduler().now();
  on_crash(crash_time_);
}

void Node::reboot_now() {
  if (!down_) return;
  down_ = false;
  ++boot_epoch_;
  const SimTime now = scheduler().now();
  const SimTime downtime = now - crash_time_;
  if (channel_ != nullptr && channel_->tracer().on()) {
    const obs::Tracer& trace = channel_->tracer();
    trace.emit(trace.event("node.reboot")
                   .f("node", id_)
                   .f("down_ns", static_cast<std::int64_t>(downtime)));
  }
  on_reboot(now, downtime);
}

}  // namespace sld::sim
