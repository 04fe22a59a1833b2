// Event queue and Action tests: ordering, the (when, seq) tie-break with
// reserved pushes and the push contract against a sorted reference model,
// running out of sequence numbers, the bound on bucket moves, Action
// storage — inline without allocating, heap fallback, move-only captures,
// destruction of actions that never ran — and actions that run in their
// slot: two moves from schedule to run, nested pushes, a throwing action.
// Property cases replay with SLD_PROP_SEED.
#include "sim/event.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/memstats.hpp"
#include "prop/prop.hpp"
#include "sim/scheduler.hpp"

namespace sld::sim {
namespace {

/// Runs the earliest event through the queue's one take-and-run path and
/// returns its time.
SimTime run_next(EventQueue& q) {
  SimTime at = -1;
  q.run_next([&at](SimTime when) { at = when; });
  return at;
}

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
  while (!q.empty()) run_next(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) q.push(5, [&order, i]() { order.push_back(i); });
  while (!q.empty()) run_next(q);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  q.push(100, []() {});
  q.push(50, []() {});
  EXPECT_EQ(q.next_time(), 50);
}

TEST(EventQueue, RunNextHandsOverTheTimeBeforeTheActionRuns) {
  EventQueue q;
  std::vector<SimTime> log;  // the time handed over, then -1 for the run
  q.push(77, [&]() { log.push_back(-1); });
  q.run_next([&](SimTime when) { log.push_back(when); });
  EXPECT_EQ(log, (std::vector<SimTime>{77, -1}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ThrowsOnEmptyAccess) {
  EventQueue q;
  EXPECT_THROW(q.next_time(), std::logic_error);
  EXPECT_THROW(run_next(q), std::logic_error);
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
  run_next(q);
  // Earlier than the last pop breaks the contract: the push throws and
  // leaves the queue as it was.
  EXPECT_THROW(q.push(5, [&]() { order.push_back(0); }), std::logic_error);
  EXPECT_TRUE(q.empty());
  q.push(15, [&]() { order.push_back(3); });
  q.push(10, [&]() { order.push_back(2); });
  EXPECT_THROW(q.push(9, [&]() { order.push_back(0); }), std::logic_error);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.next_time(), 10);
  while (!q.empty()) run_next(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, BaseTimeStartsAtZeroAndClearResetsIt) {
  EventQueue q;
  EXPECT_THROW(q.push(-1, []() {}), std::logic_error);
  q.push(3, []() {});
  q.push(0, []() {});
  EXPECT_EQ(run_next(q), 0);
  EXPECT_EQ(run_next(q), 3);
  EXPECT_THROW(q.push(2, []() {}), std::logic_error);
  q.clear();
  q.push(2, []() {});
  EXPECT_EQ(q.next_time(), 2);
  EXPECT_EQ(run_next(q), 2);
}

// --- the (when, seq) order and the move bound, by property -------------------

/// A push lands `delay` after the last popped time (0 before the first pop
/// and after a clear), so every push keeps the queue's contract. A reserve
/// takes `count` sequence numbers; a reserved push uses the `pick`-th one
/// not yet used (modulo how many are left), or is skipped if none is.
struct QueueOp {
  enum Kind { kPush, kReserve, kPushReserved, kPop, kClear } kind = kPush;
  SimTime delay = 0;
  std::uint64_t count = 0;
  std::uint64_t pick = 0;
};

std::string show_ops(const std::vector<QueueOp>& ops) {
  std::ostringstream os;
  for (const auto& op : ops) {
    if (op.kind == QueueOp::kPush) os << "push(+" << op.delay << ") ";
    if (op.kind == QueueOp::kReserve) os << "reserve(" << op.count << ") ";
    if (op.kind == QueueOp::kPushReserved)
      os << "push_reserved(+" << op.delay << ", #" << op.pick << ") ";
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
    // Half the cases push only fresh numbers; the rest mix in series.
    const bool series = rng.uniform_u64(2) == 0;
    std::vector<QueueOp> ops(n);
    for (auto& op : ops) {
      const double u = rng.uniform01();
      op.kind = u < 0.58   ? QueueOp::kPush
                : u < 0.998 ? QueueOp::kPop
                            : QueueOp::kClear;
      if (series && op.kind == QueueOp::kPush) {
        const double v = rng.uniform01();
        if (v < 0.1) op.kind = QueueOp::kReserve;
        else if (v < 0.6) op.kind = QueueOp::kPushReserved;
      }
      op.delay = draw_delay(rng);
      op.count = 1 + rng.uniform_u64(8);
      op.pick = rng.uniform_u64(64);
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
      "pops follow (when, seq), reserved pushes included; each item moves "
      "at most 63 times",
      queue_ops(), [](const std::vector<QueueOp>& ops) {
        EventQueue q;
        // Reference model: pending (when, seq, id), popped by minimum.
        struct Pending {
          SimTime when;
          std::uint64_t seq;
          int id;
        };
        std::vector<Pending> model;
        std::vector<std::uint32_t> unused;  // reserved, not yet pushed
        std::uint64_t seq = 0;
        std::uint64_t pushes = 0;
        SimTime base = 0;
        int next_id = 0;
        int last_run = -1;
        for (const auto& op : ops) {
          const SimTime when =
              base + std::min(op.delay,
                              std::numeric_limits<SimTime>::max() - base);
          if (op.kind == QueueOp::kPush) {
            const int id = next_id++;
            q.push(when, [id, &last_run]() { last_run = id; });
            model.push_back(Pending{when, seq++, id});
            ++pushes;
          } else if (op.kind == QueueOp::kReserve) {
            const std::uint32_t first = q.reserve(op.count);
            if (first != seq) return false;
            for (std::uint64_t k = 0; k < op.count; ++k)
              unused.push_back(static_cast<std::uint32_t>(seq++));
          } else if (op.kind == QueueOp::kPushReserved) {
            if (unused.empty()) continue;
            const auto at = unused.begin() +
                            static_cast<std::ptrdiff_t>(op.pick % unused.size());
            const std::uint32_t mine = *at;
            unused.erase(at);
            const int id = next_id++;
            q.push_reserved(when, when, mine,
                            [id, &last_run]() { last_run = id; });
            model.push_back(Pending{when, mine, id});
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
            if (run_next(q) != expected.when) return false;
            if (last_run != expected.id) return false;
            base = expected.when;
          } else {
            // Numbers restart at 0, so a stale reservation is void.
            q.clear();
            model.clear();
            unused.clear();
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

TEST(EventQueue, ReservedPushOrdersAsIfPushedWhenReserved) {
  EventQueue q;
  std::vector<int> order;
  const auto log = [&order](int id) {
    return [&order, id]() { order.push_back(id); };
  };
  const std::uint32_t first = q.reserve(2);  // numbers 0 and 1
  q.push(10, log(2));                        // number 2
  q.push(20, log(5));                        // number 3
  // Number 0 waits in a future bucket behind number 2; the refill that
  // brings both down to bucket 0 puts them in order.
  q.push_reserved(10, 0, first, log(1));
  EXPECT_EQ(run_next(q), 10);
  q.push(10, log(3));                         // number 4, after number 2
  q.push_reserved(20, 0, first + 1, log(4));  // number 1, before number 3
  while (!q.empty()) run_next(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  // A number never handed out is refused.
  EXPECT_THROW(q.push_reserved(30, 0, 5, log(0)), std::logic_error);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ReservedPushAtTheCurrentTimeJoinsBucketZeroInOrder) {
  EventQueue q;
  std::vector<int> order;
  const auto log = [&order](int id) {
    return [&order, id]() { order.push_back(id); };
  };
  const std::uint32_t first = q.reserve(3);
  q.push(5, log(10));
  q.push(5, log(11));
  q.push(5, log(12));
  q.push_reserved(5, 0, first, [&]() {
    order.push_back(0);
    // Both land at t = 5 while bucket 0 is being read: number 2 ahead of
    // the three fresh pushes, number 1 ahead of it.
    q.push_reserved(5, 0, first + 2, log(2));
    q.push_reserved(5, 0, first + 1, log(1));
  });
  while (!q.empty()) run_next(q);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 10, 11, 12}));
}

TEST(EventQueue, RunningOutOfSequenceNumbersThrowsInsteadOfWrapping) {
  EventQueue q;
  q.push(1, []() {});
  EXPECT_EQ(q.reserve(EventQueue::kSeqLimit - 2), 1u);
  q.push(2, []() {});  // the last number, 2^32 - 1
  EXPECT_THROW(q.push(3, []() {}), std::overflow_error);
  EXPECT_THROW(q.reserve(1), std::overflow_error);
  EXPECT_EQ(q.size(), 2u);
  q.clear();
  EXPECT_EQ(q.reserve(EventQueue::kSeqLimit), 0u);
  q.clear();
  EXPECT_THROW(q.reserve(EventQueue::kSeqLimit + 1), std::overflow_error);
  q.push(4, []() {});
  EXPECT_EQ(run_next(q), 4);

  Scheduler s;
  EXPECT_THROW(s.reserve(std::size_t{1} << 32), std::overflow_error);
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
  run_next(q);
  obs::Memstats::set_enabled(true);
  const auto before = obs::Memstats::thread_totals_for("action_test");
  {
    SLD_MEM_SCOPE("action_test");
    Action a(small_fn);
    Action moved = std::move(a);
    moved();
    q.push(1, std::move(moved));
    q.push(2, inline_fn);
    while (!q.empty()) run_next(q);
  }
  const auto mid = obs::Memstats::thread_totals_for("action_test");
  {
    // The control: a larger capture does allocate, so the zero above is a
    // real measurement.
    SLD_MEM_SCOPE("action_test");
    q.push(3, big_fn);
    run_next(q);
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
  run_next(q);
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
    for (int i = 0; i < 100; ++i) run_next(q);
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

/// A callable that counts its moves and its runs.
struct MoveCounter {
  int* moves;
  int* runs;
  MoveCounter(int* m, int* r) : moves(m), runs(r) {}
  MoveCounter(MoveCounter&& o) noexcept : moves(o.moves), runs(o.runs) {
    ++*moves;
  }
  MoveCounter(const MoveCounter&) = delete;
  MoveCounter& operator=(const MoveCounter&) = delete;
  MoveCounter& operator=(MoveCounter&&) = delete;
  ~MoveCounter() = default;
  void operator()() const { ++*runs; }
};

TEST(Scheduler, ScheduledCallableMovesTwiceBeforeItRuns) {
  // Once into the Action that schedule_at takes, once into the queue's
  // slot; it runs where it lies.
  Scheduler s;
  int moves = 0;
  int runs = 0;
  s.schedule_at(5, MoveCounter(&moves, &runs));
  EXPECT_EQ(moves, 2);
  s.run();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(moves, 2);

  moves = 0;
  s.schedule_after(3, MoveCounter(&moves, &runs));
  s.run();
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(moves, 2);
}

TEST(Scheduler, ActionReadsItsCapturesAfterSchedulingPastAChunk) {
  // The action runs inside its slot while it pushes 600 events, more than
  // one 512-slot chunk: no nested push may take its slot, and adding a
  // chunk may not move it. Its captures are inline, so a push into its
  // slot would overwrite the stamp it reads afterwards.
  constexpr std::uint64_t kStamp = 0x5eed5eed5eed5eedULL;
  Scheduler s;
  std::array<std::uint64_t, 3> stamp{};
  stamp.fill(kStamp);
  int ran = 0;
  int intact = -1;
  const auto action = [stamp, &s, &ran, &intact]() {
    for (int i = 0; i < 600; ++i)
      s.schedule_after(1 + i % 3, [&ran]() { ++ran; });
    intact = 0;
    for (const auto w : stamp) intact += w == kStamp ? 1 : 0;
  };
  static_assert(sizeof(action) <= Action::kInlineBytes);
  s.schedule_at(1, action);
  s.run();
  EXPECT_EQ(intact, 3);
  EXPECT_EQ(ran, 600);
  EXPECT_TRUE(s.idle());
}

TEST(Scheduler, ThrowingActionFreesItsSlotAndTheNextEventStillRuns) {
  Scheduler s;
  int live = 0;
  bool next_ran = false;
  {
    Counted c(&live);
    s.schedule_at(1, [c]() {
      (void)c;
      throw std::runtime_error("action failed");
    });
  }
  s.schedule_at(2, [&]() { next_ran = true; });
  EXPECT_EQ(live, 1);
  EXPECT_THROW(s.run(), std::runtime_error);
  EXPECT_EQ(live, 0);  // the thrown-from action was destroyed
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(s.now(), 1);
  EXPECT_EQ(s.run(), 1u);
  EXPECT_TRUE(next_ran);
  EXPECT_EQ(s.now(), 2);
  EXPECT_TRUE(s.idle());
}

}  // namespace
}  // namespace sld::sim
