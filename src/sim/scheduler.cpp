#include "sim/scheduler.hpp"

#include <limits>
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
  if (delay > std::numeric_limits<SimTime>::max() - now_)
    throw std::overflow_error("Scheduler::schedule_after: past SimTime");
  queue_.push(now_ + delay, now_, std::move(action));
  note_depth();
}

auto Scheduler::reserve(std::size_t count) -> Reservation {
  if (count > std::numeric_limits<std::uint32_t>::max())
    throw std::overflow_error("Scheduler::reserve: series too long");
  const std::uint32_t first = queue_.reserve(count);
  return Reservation{now_, first, static_cast<std::uint32_t>(count)};
}

void Scheduler::schedule_reserved(SimTime when, const Reservation& series,
                                  std::uint32_t k, Action action) {
  if (k >= series.count)
    throw std::invalid_argument("Scheduler::schedule_reserved: k past count");
  if (when < now_)
    throw std::invalid_argument(
        "Scheduler::schedule_reserved: time in the past");
  queue_.push_reserved(when, series.planned_at, series.first + k,
                       std::move(action));
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
