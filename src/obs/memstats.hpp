// Allocation telemetry (the observability subsystem's where-did-the-memory-
// go part; see obs/trace.hpp for events and obs/metrics.hpp for
// aggregates).
//
// Instrumented code marks a region with `SLD_MEM_SCOPE("subsystem")`: an
// RAII tag that attributes every heap allocation made while it is live (on
// the same thread, innermost tag wins) to that subsystem. The layer is OFF
// by default and follows the same cached-boolean gating discipline as
// `Tracer`: with memstats disabled the replaced global
// `operator new`/`operator delete` are a relaxed atomic load and a branch
// in front of plain malloc/free — no tracking structure is touched, no
// allocation happens, and no randomness is drawn, so a memstats-off run is
// bit-for-bit identical to the seed (tests/test_memstats.cpp asserts this).
//
// What is counted, per scope tag: allocations, frees, bytes allocated and
// freed, and live/peak live bytes.
// Only allocations made inside an `SLD_MEM_SCOPE` are attributed — harness
// and library allocations outside any scope pass through unrecorded, which
// is what makes the per-scope counts invariant across `--jobs N`: every
// trial runs sealed to one worker thread, so its scoped allocations (and
// the frees of those pointers, matched through a sharded pointer table and
// credited to the allocating scope) are identical whether trials run
// serially or fanned over worker threads, and the cross-thread merge (sum
// counts, per-thread peaks) reproduces the serial totals exactly. Peak live bytes
// is the one approximate field: it is a per-thread high-water mark, so
// concurrent trials sharing a scope make the merged peak depend on worker
// count — it is reported but excluded from exact regression gates.
//
// Thread exit: each thread's stats are registered once and folded into a
// retired accumulator when the thread exits, so `snapshot()` keeps the
// counts of run_indexed workers after they are joined.
//
// Thread-safety contract: recording touches only the calling thread's
// stats plus one pointer-table shard lock. `set_enabled` / `snapshot`
// must only be called while no instrumented code is running (between
// trials / runs). Scope tags must be string literals.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace sld::obs {

/// Aggregated allocation statistics for one scope tag (one thread's view,
/// or the cross-thread merge).
struct MemScopeStats {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t freed_bytes = 0;
  /// alloc_bytes - freed_bytes as seen by this thread; cross-thread frees
  /// of scoped pointers can drive a single thread's value negative, but
  /// the merged sum is the true global live-byte count.
  std::int64_t live_bytes = 0;
  /// High-water mark of live_bytes since thread start (or the last
  /// `reset_thread_peaks`). Merged across threads by summing — an upper
  /// bound, not an exact global peak; excluded from exact gates.
  std::int64_t peak_live_bytes = 0;

  void merge(const MemScopeStats& other);
};

/// One scope's stats with its tag, as returned by snapshots.
struct MemScopeSnapshot {
  std::string name;
  MemScopeStats stats;
};

/// Per-trial roll-up of memstats plus the sim/scheduler/channel hot-path
/// counters — the block `BENCH_*.json` reports and `bench_compare.py
/// --exact` gates. All integer fields except `peak_live_bytes` are exact
/// deterministic functions of (config, seed), identical at any `--jobs N`.
struct MemHotTotals {
  bool enabled = false;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t frees = 0;
  std::uint64_t freed_bytes = 0;
  std::uint64_t peak_live_bytes = 0;  // summed per-thread peaks (approx)
  std::uint64_t max_queue_depth = 0;
  double queue_depth_p99 = 0.0;
  std::uint64_t sift_up_steps = 0;
  std::uint64_t sift_down_steps = 0;
  std::uint64_t scans = 0;       // transmissions that scanned the topology
  std::uint64_t scan_nodes = 0;  // nodes examined across those scans
  double packet_lifetime_p99_ns = 0.0;

  double scan_fanout_mean() const {
    return scans ? static_cast<double>(scan_nodes) / static_cast<double>(scans)
                 : 0.0;
  }

  /// Accumulates another trial (sums counts, maxes depth/percentiles).
  void merge(const MemHotTotals& other);
};

class Memstats {
 public:
  /// Hot-path gate: one relaxed load. False (the default) means the
  /// replaced operator new/delete are passthroughs to malloc/free.
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Turns allocation tracking on/off. Only flip while no instrumented
  /// code is running. Enabling is sticky for the delete path: once any
  /// tracking happened, frees keep consulting the pointer table so
  /// pointers allocated under tracking are always accounted (and never
  /// leak stale table entries into reused addresses).
  static void set_enabled(bool on);

  /// True once set_enabled(true) has ever been called in this process.
  static bool ever_enabled() {
    return ever_enabled_.load(std::memory_order_relaxed);
  }

  /// The calling thread's stats for one scope tag (zeroes if the scope
  /// has not recorded on this thread). No allocation.
  static MemScopeStats thread_totals_for(const char* tag);

  /// Sets every scope's peak_live_bytes to its current live_bytes on the
  /// calling thread — called at trial start so the end-of-trial peak is
  /// the trial's own high-water mark.
  static void reset_thread_peaks();

  /// Cross-thread merge (live threads + retired accumulator), sorted by
  /// scope name.
  static std::vector<MemScopeSnapshot> snapshot();

  /// Flat per-scope table, for humans.
  static std::string format_table();

  // --- internals used by MemScope and the allocation hooks -------------

  /// Pushes `tag` as the calling thread's innermost scope; returns the
  /// previous tag (restored by pop).
  static const char* push_scope(const char* tag);
  static void pop_scope(const char* prev);

 private:
  static std::atomic<bool> enabled_;
  static std::atomic<bool> ever_enabled_;
};

/// Current peak resident set size of the process in KiB (getrusage
/// ru_maxrss). A host measurement — monotone within a run but NOT a
/// deterministic function of the seed; only sampled behind explicitly
/// opted-in telemetry (`TimeseriesOptions::sample_rss`).
std::uint64_t current_rss_kb();

/// RAII scope tag. Use through SLD_MEM_SCOPE; the tag must be a literal.
class MemScope {
 public:
  explicit MemScope(const char* tag) {
    if (!Memstats::enabled()) return;
    prev_ = Memstats::push_scope(tag);
    pushed_ = true;
  }
  ~MemScope() {
    if (pushed_) Memstats::pop_scope(prev_);
  }
  MemScope(const MemScope&) = delete;
  MemScope& operator=(const MemScope&) = delete;

 private:
  const char* prev_ = nullptr;
  bool pushed_ = false;
};

#define SLD_MEM_CONCAT2(a, b) a##b
#define SLD_MEM_CONCAT(a, b) SLD_MEM_CONCAT2(a, b)
/// Attributes heap allocations in the enclosing scope to `tag` (a string
/// literal naming a subsystem: "scheduler", "channel", "messages", ...).
#define SLD_MEM_SCOPE(tag) \
  ::sld::obs::MemScope SLD_MEM_CONCAT(sld_mem_scope_, __LINE__)(tag)

}  // namespace sld::obs
