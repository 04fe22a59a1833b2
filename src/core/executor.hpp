// Fan-out of independent work items: the trials of an experiment (see
// core/experiment.hpp for their merge), bench sweep points and chaos
// schedules.
//
// `run_indexed(count, jobs, fn)` runs fn(0) .. fn(count - 1) on up to
// min(resolve_jobs(jobs), count) threads. Each thread claims the next
// index from one shared counter, so a long item never strands the items
// behind it, and stores fn(i) — or the exception it threw — in slot i.
// The threads are joined before the call returns, and a join
// happens-after every slot write, so the caller reads the slots
// race-free.
//
// Determinism contract: the order in which items execute depends on
// timing. Output is byte-identical at any jobs level because every caller
// folds the returned vector in index order after the join, and each item
// computes everything it needs inside `fn`.
//
// Exception contract: the call rethrows the exception of the lowest
// throwing index, at any jobs level. On worker threads every other item
// still runs first, and the rethrow follows the join; the plain loop
// stops at that item.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <type_traits>
#include <vector>

namespace sld::core {

/// Maps a --jobs value to a worker count: 0 means "all hardware threads"
/// (hardware_concurrency, at least 1), anything else is taken literally.
std::size_t resolve_jobs(std::size_t jobs);

/// Runs `fn(0) .. fn(count - 1)` and returns the results in index order.
/// With one worker left after the clamp it is a plain loop on the calling
/// thread, which starts no thread at all.
template <typename Fn>
auto run_indexed(std::size_t count, std::size_t jobs, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  using Result = decltype(fn(std::size_t{0}));
  // std::vector<bool> packs neighbouring slots into one word, so two
  // workers storing adjacent results would race.
  static_assert(!std::is_same_v<Result, bool>,
                "run_indexed: return a wrapper, not bool");
  std::vector<Result> results(count);
  const std::size_t workers = std::min(resolve_jobs(jobs), count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) results[i] = fn(i);
    return results;
  }
  std::vector<std::exception_ptr> errors(count);
  std::atomic<std::size_t> next{0};
  {
    std::vector<std::jthread> threads;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= count) return;
          try {
            results[i] = fn(i);
          } catch (...) {
            errors[i] = std::current_exception();
          }
        }
      });
    }
  }  // each jthread joins as `threads` goes out of scope
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
  return results;
}

}  // namespace sld::core
