// run_indexed (core/executor.hpp) contract tests: resolve_jobs maps 0 to
// the hardware, every item runs exactly once and its result lands in its
// own slot for any worker count, empty and single-item batches return,
// a throwing item loses nothing and the lowest-index exception wins, a
// blocked item does not strand the items behind it, and no more workers
// start than there are items. The exactly-once property is checked both
// on fixed edge cases and property-style over random batch shapes
// (SLD_PROP_SEED replays a failing case).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/executor.hpp"
#include "obs/memstats.hpp"
#include "prop/prop.hpp"

namespace {

using sld::core::resolve_jobs;
using sld::core::run_indexed;

/// Runs `items` counting items on `jobs` workers and returns how often
/// each ran, after checking that slot i holds item i's result.
std::vector<int> execution_counts(std::size_t items, std::size_t jobs) {
  std::vector<std::atomic<int>> counts(items);
  const std::vector<std::size_t> results =
      run_indexed(items, jobs, [&counts](std::size_t i) {
        counts[i].fetch_add(1, std::memory_order_relaxed);
        return i * 3 + 1;
      });
  EXPECT_EQ(results.size(), items);
  for (std::size_t i = 0; i < results.size(); ++i)
    EXPECT_EQ(results[i], i * 3 + 1) << "slot " << i;
  std::vector<int> out;
  out.reserve(items);
  for (auto& c : counts) out.push_back(c.load(std::memory_order_relaxed));
  return out;
}

TEST(RunIndexedTest, ResolveJobsMapsZeroToHardware) {
  EXPECT_GE(resolve_jobs(0), 1u);
  EXPECT_EQ(resolve_jobs(1), 1u);
  EXPECT_EQ(resolve_jobs(7), 7u);
}

TEST(RunIndexedTest, EveryItemRunsExactlyOnceAcrossWorkerSweep) {
  for (std::size_t workers = 1; workers <= 8; ++workers) {
    for (const std::size_t items : {0u, 1u, 2u, 7u, 64u}) {
      const auto counts = execution_counts(items, workers);
      ASSERT_EQ(counts.size(), items);
      for (std::size_t i = 0; i < items; ++i)
        EXPECT_EQ(counts[i], 1) << "workers=" << workers << " item=" << i;
    }
  }
}

TEST(RunIndexedTest, EmptyAndSingleItemBatchesReturn) {
  for (int round = 0; round < 50; ++round) {
    bool ran_empty = false;
    const auto none = run_indexed(0, 4, [&ran_empty](std::size_t) {
      ran_empty = true;
      return 0;
    });
    EXPECT_TRUE(none.empty());
    EXPECT_FALSE(ran_empty);
    // One item leaves one worker after the clamp: it runs on the calling
    // thread.
    const auto one = run_indexed(1, 4, [](std::size_t) {
      return std::this_thread::get_id();
    });
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], std::this_thread::get_id());
  }
}

TEST(RunIndexedTest, LowestIndexExceptionWinsAndNothingIsLost) {
  std::vector<std::atomic<int>> counts(16);
  try {
    (void)run_indexed(counts.size(), 4, [&counts](std::size_t i) {
      counts[i].fetch_add(1);
      // Three items throw; the one with the smallest index must be the
      // one run_indexed reports, regardless of completion order.
      if (i == 3 || i == 9 || i == 12)
        throw std::runtime_error("item " + std::to_string(i));
      return i;
    });
    FAIL() << "run_indexed swallowed the item exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "item 3");
  }
  for (std::size_t i = 0; i < counts.size(); ++i)
    EXPECT_EQ(counts[i].load(), 1) << "item " << i;
}

TEST(RunIndexedTest, BlockedItemDoesNotStrandTheRest) {
  // 2 workers, 8 items: item 0 blocks until every other item has run.
  // The worker that claimed it is wedged, so items 1..7 can only finish
  // on the other worker, by claiming them one after another from the
  // shared counter. If a blocked item stranded the items behind it, this
  // test would hang instead of completing.
  constexpr std::size_t kItems = 8;
  std::atomic<std::size_t> others_done{0};
  const auto results = run_indexed(kItems, 2, [&](std::size_t i) {
    if (i == 0) {
      while (others_done.load() < kItems - 1)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    } else {
      others_done.fetch_add(1);
    }
    return i;
  });
  for (std::size_t i = 0; i < kItems; ++i) EXPECT_EQ(results[i], i);
}

TEST(RunIndexedTest, StartsNoMoreWorkersThanItems) {
  // --jobs 64 over 3 items must start the same 3 workers as --jobs 3.
  // Launching a thread allocates on the calling thread, so the two calls
  // must make the same allocations there.
  using sld::obs::Memstats;
  const auto launch_allocs = [](std::size_t jobs) {
    const auto before = Memstats::thread_totals_for("executor_test").allocs;
    {
      SLD_MEM_SCOPE("executor_test");
      const auto results =
          run_indexed(3, jobs, [](std::size_t i) { return i; });
      EXPECT_EQ(results.size(), 3u);
    }
    return Memstats::thread_totals_for("executor_test").allocs - before;
  };
  Memstats::set_enabled(true);
  const std::uint64_t clamped = launch_allocs(3);
  const std::uint64_t requested_64 = launch_allocs(64);
  Memstats::set_enabled(false);
  EXPECT_GT(clamped, 0u);
  EXPECT_EQ(requested_64, clamped);
}

TEST(RunIndexedTest, PropExactlyOnceOverRandomBatchShapes) {
  // Batch shape = (workers in 1..8, items in 0..97): every item runs
  // exactly once, whatever the shape.
  auto gen = sld::prop::int_range(0, 8 * 98 - 1);
  sld::prop::Config cfg;
  cfg.iterations = 40;
  sld::prop::forall<std::int64_t>(
      "run_indexed runs every item exactly once", gen,
      [](const std::int64_t& shape) {
        const std::size_t workers =
            1 + static_cast<std::size_t>(shape) / 98;
        const std::size_t items = static_cast<std::size_t>(shape) % 98;
        const auto counts = execution_counts(items, workers);
        for (const int c : counts)
          if (c != 1) return false;
        return counts.size() == items;
      },
      cfg);
}

}  // namespace
