// Event queue and Action tests: ordering, the (when, seq) tie-break
// against a sorted reference model, sift-step counts against the
// Event-heap implementation the key heap replaced (kept below as the
// oracle), and Action storage — inline without allocating, heap fallback,
// move-only captures, destruction of actions that never ran. Property
// cases replay with SLD_PROP_SEED.
#include "sim/event.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
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
  q.push(5, [&]() { order.push_back(2); });
  q.push(15, [&]() { order.push_back(3); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// --- the (when, seq) order and sift-step counts, by property -----------------

/// The queue this one replaced: a binary heap of whole events with the
/// same hole-based sift. Its step counts are what the micro_hotpaths
/// golden and the exact counters pin.
class EventHeapOracle {
 public:
  void push(SimTime when, int id) {
    heap_.push_back(Entry{when, next_seq_++, id});
    std::size_t i = heap_.size() - 1;
    const Entry ev = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!later(heap_[parent], ev)) break;
      heap_[i] = heap_[parent];
      i = parent;
      ++sift_up_steps;
    }
    heap_[i] = ev;
  }

  int pop() {
    const Entry top = heap_.front();
    const Entry ev = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      std::size_t i = 0;
      const std::size_t n = heap_.size();
      for (;;) {
        const std::size_t left = 2 * i + 1;
        if (left >= n) break;
        const std::size_t right = left + 1;
        std::size_t smallest = left;
        if (right < n && later(heap_[left], heap_[right])) smallest = right;
        if (!later(ev, heap_[smallest])) break;
        heap_[i] = heap_[smallest];
        i = smallest;
        ++sift_down_steps;
      }
      heap_[i] = ev;
    }
    return top.id;
  }

  void clear() {
    heap_.clear();
    next_seq_ = 0;
    sift_up_steps = 0;
    sift_down_steps = 0;
  }

  std::uint64_t sift_up_steps = 0;
  std::uint64_t sift_down_steps = 0;

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    int id;
  };
  static bool later(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

struct QueueOp {
  enum Kind { kPush, kPop, kClear } kind = kPush;
  SimTime when = 0;
};

std::string show_ops(const std::vector<QueueOp>& ops) {
  std::ostringstream os;
  for (const auto& op : ops) {
    if (op.kind == QueueOp::kPush) os << "push(" << op.when << ") ";
    if (op.kind == QueueOp::kPop) os << "pop ";
    if (op.kind == QueueOp::kClear) os << "clear ";
  }
  return os.str();
}

prop::Gen<std::vector<QueueOp>> queue_ops() {
  prop::Gen<std::vector<QueueOp>> g;
  g.generate = [](util::Rng& rng) {
    // Few distinct times, so most pushes tie with queued events.
    const auto distinct_times =
        static_cast<std::int64_t>(1 + rng.uniform_u64(12));
    const std::size_t n = 1 + rng.uniform_u64(1500);
    std::vector<QueueOp> ops(n);
    for (auto& op : ops) {
      const double u = rng.uniform01();
      op.kind = u < 0.58   ? QueueOp::kPush
                : u < 0.998 ? QueueOp::kPop
                            : QueueOp::kClear;
      op.when = rng.uniform_int(0, distinct_times - 1);
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

TEST(EventQueueProperty, PopOrderAndSiftStepsMatchReferenceAndOracle) {
  EXPECT_TRUE(prop::forall(
      "pops follow (when, seq); sift steps equal the Event heap's",
      queue_ops(), [](const std::vector<QueueOp>& ops) {
        EventQueue q;
        EventHeapOracle oracle;
        // Reference model: pending (when, seq, id), popped by minimum.
        struct Pending {
          SimTime when;
          std::uint64_t seq;
          int id;
        };
        std::vector<Pending> model;
        std::uint64_t seq = 0;
        int next_id = 0;
        int last_run = -1;
        for (const auto& op : ops) {
          if (op.kind == QueueOp::kPush) {
            const int id = next_id++;
            q.push(op.when, [id, &last_run]() { last_run = id; });
            oracle.push(op.when, id);
            model.push_back(Pending{op.when, seq++, id});
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
            if (oracle.pop() != expected.id) return false;
          } else {
            q.clear();
            oracle.clear();
            model.clear();
            seq = 0;
          }
          if (q.size() != model.size()) return false;
        }
        return q.sift_up_steps() == oracle.sift_up_steps &&
               q.sift_down_steps() == oracle.sift_down_steps;
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
