#include "sim/scheduler.hpp"

#include <stdexcept>

#include "check/invariant.hpp"

namespace sld::sim {

void Scheduler::schedule_at(SimTime when, Action action) {
  if (when < now_)
    throw std::invalid_argument("Scheduler::schedule_at: time in the past");
  queue_.push(when, now_, std::move(action));
  note_depth();
}

void Scheduler::schedule_after(SimTime delay, Action action) {
  if (delay < 0)
    throw std::invalid_argument("Scheduler::schedule_after: negative delay");
  queue_.push(now_ + delay, now_, std::move(action));
  note_depth();
}

void Scheduler::advance_clock(SimTime when) {
  SLD_INVARIANT(when >= now_,
                "time monotonicity: event at " << when
                    << " ns while the clock reads " << now_ << " ns");
  if (probe_on_ && when > now_) probe_(when);
  now_ = when;
}

std::uint64_t Scheduler::run(std::uint64_t max_events) {
  std::uint64_t executed = 0;
  while (!queue_.empty() && executed < max_events) {
    queue_.run_next([this](SimTime when) { advance_clock(when); });
    ++executed;
    ++executed_;
  }
  return executed;
}

std::uint64_t Scheduler::run_until(SimTime until) {
  std::uint64_t executed = 0;
  while (!queue_.empty() && queue_.next_time() <= until) {
    queue_.run_next([&](SimTime when) {
      SLD_INVARIANT(when <= until,
                    "no event after stop: event at " << when
                        << " ns executed past run_until(" << until << ")");
      advance_clock(when);
    });
    ++executed;
    ++executed_;
  }
  if (now_ < until) advance_clock(until);
  return executed;
}

void Scheduler::reset() {
  queue_.clear();
  now_ = 0;
  executed_ = 0;
  max_pending_ = 0;
}

}  // namespace sld::sim
