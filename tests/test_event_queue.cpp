// Event queue and Action tests: ordering, the FIFO tie-break and the
// push contract against a sorted reference model, the bound on bucket
// moves, and Action storage — inline without allocating, heap fallback,
// move-only captures, destruction of actions that never ran. Property
// cases replay with SLD_PROP_SEED.
#include "sim/event.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/memstats.hpp"
#include "prop/prop.hpp"
#include "sim/scheduler.hpp"

namespace sld::sim {
namespace {

TEST(EventQueue, EmptyByDefault) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&]() { order.push_back(3); });
  q.push(10, [&]() { order.push_back(1); });
  q.push(20, [&]() { order.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) q.push(5, [&order, i]() { order.push_back(i); });
  while (!q.empty()) q.pop().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  q.push(100, []() {});
  q.push(50, []() {});
  EXPECT_EQ(q.next_time(), 50);
}

TEST(EventQueue, PopReturnsEventWithMetadata) {
  EventQueue q;
  q.push(77, []() {});
  const Event ev = q.pop();
  EXPECT_EQ(ev.when, 77);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ThrowsOnEmptyAccess) {
  EventQueue q;
  EXPECT_THROW(q.next_time(), std::logic_error);
  EXPECT_THROW(q.pop(), std::logic_error);
}

TEST(EventQueue, ClearDropsEverything) {
  EventQueue q;
  q.push(1, []() {});
  q.push(2, []() {});
  q.clear();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, InterleavedPushPopKeepsOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(10, [&]() { order.push_back(1); });
  q.pop().action();
  // Earlier than the last pop breaks the contract: the push throws and
  // leaves the queue as it was.
  EXPECT_THROW(q.push(5, [&]() { order.push_back(0); }), std::logic_error);
  EXPECT_TRUE(q.empty());
  q.push(15, [&]() { order.push_back(3); });
  q.push(10, [&]() { order.push_back(2); });
  EXPECT_THROW(q.push(9, [&]() { order.push_back(0); }), std::logic_error);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.next_time(), 10);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, BaseTimeStartsAtZeroAndClearResetsIt) {
  EventQueue q;
  EXPECT_THROW(q.push(-1, []() {}), std::logic_error);
  q.push(3, []() {});
  q.push(0, []() {});
  EXPECT_EQ(q.pop().when, 0);
  EXPECT_EQ(q.pop().when, 3);
  EXPECT_THROW(q.push(2, []() {}), std::logic_error);
  q.clear();
  q.push(2, []() {});
  EXPECT_EQ(q.next_time(), 2);
  EXPECT_EQ(q.pop().when, 2);
}

// --- the (when, push order) order and the move bound, by property ------------

/// A push lands `delay` after the last popped time (0 before the first pop
/// and after a clear), so every push keeps the queue's contract.
struct QueueOp {
  enum Kind { kPush, kPop, kClear } kind = kPush;
  SimTime delay = 0;
};

std::string show_ops(const std::vector<QueueOp>& ops) {
  std::ostringstream os;
  for (const auto& op : ops) {
    if (op.kind == QueueOp::kPush) os << "push(+" << op.delay << ") ";
    if (op.kind == QueueOp::kPop) os << "pop ";
    if (op.kind == QueueOp::kClear) os << "clear ";
  }
  return os.str();
}

/// 0 (a tie with the last pop), small (ties among queued events), or
/// log-uniform up to 2^40 or up to 2^62, so every bucket gets items.
SimTime draw_delay(util::Rng& rng) {
  const auto bits = [&rng](std::int64_t lo, std::int64_t hi) {
    const auto k = static_cast<unsigned>(rng.uniform_int(lo, hi));
    return static_cast<SimTime>(rng.uniform_u64(std::uint64_t{1} << k));
  };
  switch (rng.uniform_u64(4)) {
    case 0:
      return 0;
    case 1:
      return static_cast<SimTime>(rng.uniform_u64(8));
    case 2:
      return bits(1, 40);
    default:
      return bits(41, 62);
  }
}

prop::Gen<std::vector<QueueOp>> queue_ops() {
  prop::Gen<std::vector<QueueOp>> g;
  g.generate = [](util::Rng& rng) {
    const std::size_t n = 1 + rng.uniform_u64(1500);
    std::vector<QueueOp> ops(n);
    for (auto& op : ops) {
      const double u = rng.uniform01();
      op.kind = u < 0.58   ? QueueOp::kPush
                : u < 0.998 ? QueueOp::kPop
                            : QueueOp::kClear;
      if (op.kind == QueueOp::kPush) op.delay = draw_delay(rng);
    }
    return ops;
  };
  g.shrink = [](const std::vector<QueueOp>& ops) {
    std::vector<std::vector<QueueOp>> out;
    if (ops.size() > 1) {
      const auto half = static_cast<std::ptrdiff_t>(ops.size() / 2);
      out.emplace_back(ops.begin(), ops.begin() + half);
      out.emplace_back(ops.begin(), ops.end() - 1);
    }
    return out;
  };
  g.show = show_ops;
  return g;
}

TEST(EventQueueProperty, PopOrderMatchesReferenceAndMovesStayBounded) {
  EXPECT_TRUE(prop::forall(
      "pops follow (when, push order); each item moves at most 63 times",
      queue_ops(), [](const std::vector<QueueOp>& ops) {
        EventQueue q;
        // Reference model: pending (when, seq, id), popped by minimum.
        struct Pending {
          SimTime when;
          std::uint64_t seq;
          int id;
        };
        std::vector<Pending> model;
        std::uint64_t seq = 0;
        std::uint64_t pushes = 0;
        SimTime base = 0;
        int next_id = 0;
        int last_run = -1;
        for (const auto& op : ops) {
          if (op.kind == QueueOp::kPush) {
            const SimTime when =
                base + std::min(op.delay,
                                std::numeric_limits<SimTime>::max() - base);
            const int id = next_id++;
            q.push(when, [id, &last_run]() { last_run = id; });
            model.push_back(Pending{when, seq++, id});
            ++pushes;
          } else if (op.kind == QueueOp::kPop) {
            if (model.empty()) continue;
            const auto min = std::min_element(
                model.begin(), model.end(),
                [](const Pending& a, const Pending& b) {
                  return a.when != b.when ? a.when < b.when : a.seq < b.seq;
                });
            const Pending expected = *min;
            model.erase(min);
            if (q.next_time() != expected.when) return false;
            Event ev = q.pop();
            if (ev.when != expected.when) return false;
            ev.action();
            if (last_run != expected.id) return false;
            base = expected.when;
          } else {
            q.clear();
            model.clear();
            seq = 0;
            pushes = 0;
            base = 0;
          }
          if (q.size() != model.size()) return false;
          if (q.sift_down_steps() > 63 * pushes) return false;
        }
        return true;
      }));
}

// --- Action -----------------------------------------------------------------

TEST(Action, InlineCaptureMakesNoAllocation) {
  std::array<std::uint64_t, 6> words{1, 2, 3, 4, 5, 6};
  std::array<std::uint64_t, 5> five{1, 2, 3, 4, 5};
  std::uint64_t sum = 0;
  const auto small_fn = [words]() { (void)words; };
  const auto inline_fn = [five, &sum]() {
    for (const auto w : five) sum += w;
  };
  const auto big_fn = [words, &sum]() {
    for (const auto w : words) sum += w;
  };
  static_assert(sizeof(small_fn) == Action::kInlineBytes);
  static_assert(sizeof(inline_fn) == Action::kInlineBytes);
  static_assert(sizeof(big_fn) > Action::kInlineBytes);

  // Actions travel through a queue (compiled elsewhere), so the compiler
  // cannot elide a heap fallback's new/delete pair. The queue is warmed
  // first; its own growth is attributed to the "scheduler" scope anyway.
  EventQueue q;
  q.push(0, []() {});
  q.pop();
  obs::Memstats::set_enabled(true);
  const auto before = obs::Memstats::thread_totals_for("action_test");
  {
    SLD_MEM_SCOPE("action_test");
    Action a(small_fn);
    Action moved = std::move(a);
    moved();
    q.push(1, std::move(moved));
    q.push(2, inline_fn);
    while (!q.empty()) q.pop().action();
  }
  const auto mid = obs::Memstats::thread_totals_for("action_test");
  {
    // The control: a larger capture does allocate, so the zero above is a
    // real measurement.
    SLD_MEM_SCOPE("action_test");
    q.push(3, big_fn);
    q.pop().action();
  }
  const auto after = obs::Memstats::thread_totals_for("action_test");
  obs::Memstats::set_enabled(false);
  EXPECT_EQ(mid.allocs - before.allocs, 0u);
  EXPECT_EQ(after.allocs - mid.allocs, 1u);
  EXPECT_EQ(after.frees - mid.frees, 1u);
  EXPECT_EQ(sum, 15u + 21u);
}

TEST(Action, LargeCaptureFallsBackToTheHeapAndRuns) {
  std::array<std::uint64_t, 16> words{};
  for (std::size_t i = 0; i < words.size(); ++i) words[i] = i + 1;
  std::uint64_t sum = 0;
  Action a([words, &sum]() {
    for (const auto w : words) sum += w;
  });
  Action b = std::move(a);
  b();
  EXPECT_EQ(sum, 136u);

  Action c;
  c = std::move(b);
  c();
  EXPECT_EQ(sum, 272u);
}

TEST(Action, MoveOnlyCaptureWorks) {
  auto owned = std::make_unique<int>(41);
  int seen = 0;
  Action a([p = std::move(owned), &seen]() { seen = ++*p; });
  Action b(std::move(a));
  b();
  EXPECT_EQ(seen, 42);

  EventQueue q;
  auto other = std::make_unique<int>(7);
  q.push(3, [p = std::move(other), &seen]() { seen = *p; });
  q.pop().action();
  EXPECT_EQ(seen, 7);
}

/// Counts live instances through a shared counter, to prove destruction.
struct Counted {
  explicit Counted(int* live) : live_(live) { ++*live_; }
  Counted(const Counted& o) : live_(o.live_) { ++*live_; }
  Counted(Counted&& o) noexcept : live_(o.live_) { ++*live_; }
  Counted& operator=(const Counted&) = delete;
  ~Counted() { --*live_; }
  int* live_;
};

TEST(EventQueue, ClearAndDestructorDestroyActionsThatNeverRan) {
  int live = 0;
  {
    EventQueue q;
    for (int i = 0; i < 1200; ++i) {  // spans several slot chunks
      Counted c(&live);
      std::array<std::uint64_t, 8> pad{};  // heap fallback for odd i
      if (i % 2 == 0)
        q.push(i % 17, [c]() { (void)c; });
      else
        q.push(i % 17, [c, pad]() { (void)c; (void)pad; });
    }
    EXPECT_EQ(live, 1200);
    for (int i = 0; i < 100; ++i) q.pop().action();
    EXPECT_EQ(live, 1100);
    q.clear();
    EXPECT_EQ(live, 0);
    EXPECT_TRUE(q.empty());

    for (int i = 0; i < 700; ++i) {
      Counted c(&live);
      q.push(i, [c]() { (void)c; });
    }
    EXPECT_EQ(live, 700);
  }
  EXPECT_EQ(live, 0);  // the destructor dropped the rest
}

TEST(Scheduler, ActionsSchedulingWhileSlotsRecycleRunIntact) {
  // Every action carries a 40-byte stamp of its own id and, when it runs,
  // checks the stamp and schedules up to two more — so slots are released
  // and reacquired while new chunks are added, all from inside actions.
  constexpr std::uint64_t kByteOnes = 0x0101010101010101;
  Scheduler s;
  int scheduled = 0;
  int ran = 0;
  int corrupted = 0;
  std::function<void(int)> add = [&](int id) {
    std::array<std::uint64_t, 5> stamp{};
    stamp.fill(kByteOnes * static_cast<std::uint64_t>(id % 251));
    ++scheduled;
    s.schedule_after(id % 7, [&, id, stamp]() {
      ++ran;
      for (const auto w : stamp)
        if (w != kByteOnes * static_cast<std::uint64_t>(id % 251)) ++corrupted;
      if (scheduled < 5000) add(scheduled);
      if (scheduled < 5000 && id % 3 == 0) add(scheduled);
    });
  };
  for (int i = 0; i < 600; ++i) add(i);
  s.run();
  EXPECT_EQ(ran, scheduled);
  EXPECT_EQ(scheduled, 5000);
  EXPECT_EQ(corrupted, 0);
  EXPECT_TRUE(s.idle());
}

}  // namespace
}  // namespace sld::sim
