#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace sld::sim {
namespace {

TEST(Scheduler, TimeStartsAtZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_TRUE(s.idle());
}

TEST(Scheduler, ChainedSeriesRunsAheadOfALaterEventAtTheSameInstant) {
  // A node plans probes every 50 ms from t = 0, and then a partition is
  // scheduled to start at t = 100 ms (Network::start_all starts the nodes
  // before it schedules fault transitions). Scheduled up front, the probe
  // due at 100 ms runs first. Chained, it is scheduled only when the probe
  // at 50 ms runs, after the partition; its reserved place still runs it
  // first.
  Scheduler s;
  constexpr SimTime kStep = 50 * kMillisecond;
  std::vector<std::string> order;
  const Scheduler::Reservation probes = s.reserve(3);
  std::function<void(std::uint32_t)> probe = [&](std::uint32_t k) {
    if (k + 1 < probes.count)
      s.schedule_reserved(s.now() + kStep, probes, k + 1,
                          [&probe, k]() { probe(k + 1); });
    order.push_back("probe@" + std::to_string(s.now() / kMillisecond));
  };
  s.schedule_reserved(0, probes, 0, [&probe]() { probe(0); });
  s.schedule_at(2 * kStep, [&]() { order.push_back("partition.start@100"); });
  EXPECT_EQ(s.pending(), 2u);
  s.run();
  EXPECT_EQ(order, (std::vector<std::string>{"probe@0", "probe@50", "probe@100",
                                             "partition.start@100"}));
  EXPECT_EQ(s.max_pending(), 2u);
}

TEST(Scheduler, ScheduleReservedChecksItsArguments) {
  Scheduler s;
  const Scheduler::Reservation series = s.reserve(2);
  EXPECT_EQ(series.count, 2u);
  EXPECT_THROW(s.schedule_reserved(5, series, 2, []() {}),
               std::invalid_argument);
  s.schedule_at(10, []() {});
  s.run();
  EXPECT_THROW(s.schedule_reserved(5, series, 0, []() {}),
               std::invalid_argument);
  EXPECT_THROW(
      s.schedule_after(std::numeric_limits<SimTime>::max() - 5, []() {}),
      std::overflow_error);
  EXPECT_TRUE(s.idle());
}

TEST(Scheduler, RunAdvancesTimeToEventTimes) {
  Scheduler s;
  std::vector<SimTime> seen;
  s.schedule_at(10, [&]() { seen.push_back(s.now()); });
  s.schedule_at(25, [&]() { seen.push_back(s.now()); });
  EXPECT_EQ(s.run(), 2u);
  EXPECT_EQ(seen, (std::vector<SimTime>{10, 25}));
  EXPECT_EQ(s.now(), 25);
}

TEST(Scheduler, ScheduleAfterIsRelative) {
  Scheduler s;
  SimTime fired_at = -1;
  s.schedule_at(100, [&]() {
    s.schedule_after(50, [&]() { fired_at = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(Scheduler, RejectsPastAndNegative) {
  Scheduler s;
  s.schedule_at(10, []() {});
  s.run();
  EXPECT_THROW(s.schedule_at(5, []() {}), std::invalid_argument);
  EXPECT_THROW(s.schedule_after(-1, []() {}), std::invalid_argument);
}

TEST(Scheduler, RunUntilStopsAtBoundary) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(10, [&]() { ++fired; });
  s.schedule_at(20, [&]() { ++fired; });
  s.schedule_at(30, [&]() { ++fired; });
  EXPECT_EQ(s.run_until(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), 20);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Scheduler, ZeroDelayFromAnActionRunsAfterTheSameInstantsQueuedEvents) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(10, [&]() {
    order.push_back(1);
    s.schedule_after(0, [&]() { order.push_back(4); });
  });
  s.schedule_at(10, [&]() { order.push_back(2); });
  s.schedule_at(10, [&]() { order.push_back(3); });
  s.schedule_at(11, [&]() { order.push_back(5); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Scheduler, EventScheduledBeforeAPendingOneAfterRunUntilRunsFirst) {
  // run_until reads the next event's time without consuming it, so an
  // event scheduled between the stop and that time still fits in front.
  Scheduler s;
  std::vector<SimTime> seen;
  s.schedule_at(10, [&]() { seen.push_back(s.now()); });
  s.schedule_at(30, [&]() { seen.push_back(s.now()); });
  EXPECT_EQ(s.run_until(20), 1u);
  s.schedule_at(25, [&]() { seen.push_back(s.now()); });
  s.run();
  EXPECT_EQ(seen, (std::vector<SimTime>{10, 25, 30}));
}

TEST(Scheduler, RunUntilAdvancesTimeEvenWhenIdle) {
  Scheduler s;
  s.run_until(500);
  EXPECT_EQ(s.now(), 500);
}

TEST(Scheduler, MaxEventsBoundsExecution) {
  Scheduler s;
  int fired = 0;
  for (int i = 0; i < 10; ++i) s.schedule_at(i, [&]() { ++fired; });
  EXPECT_EQ(s.run(3), 3u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(s.pending(), 7u);
}

TEST(Scheduler, CascadingEventsRunToCompletion) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 100) s.schedule_after(1, recurse);
  };
  s.schedule_at(0, recurse);
  s.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.now(), 99);
}

TEST(Scheduler, ResetRestoresInitialState) {
  Scheduler s;
  s.schedule_at(10, []() {});
  s.run();
  s.schedule_at(20, []() {});
  s.reset();
  EXPECT_EQ(s.now(), 0);
  EXPECT_TRUE(s.idle());
}

}  // namespace
}  // namespace sld::sim
