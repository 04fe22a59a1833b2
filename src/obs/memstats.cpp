#include "obs/memstats.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <unordered_map>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace sld::obs {

std::atomic<bool> Memstats::enabled_{false};
std::atomic<bool> Memstats::ever_enabled_{false};

namespace {

// Thread-local hook state. All trivially-constructed PODs: safe to touch
// from operator new/delete at any point of thread (or process) lifetime.
thread_local const char* tl_tag = nullptr;  // innermost SLD_MEM_SCOPE tag
thread_local bool tl_in_hook = false;       // reentrancy guard
thread_local bool tl_exiting = false;       // thread stats already retired

/// One thread's per-scope rows. Scopes are few (one per subsystem), so
/// lookup is a linear scan with pointer-identity fast path.
struct ThreadState {
  struct Row {
    const char* tag;
    MemScopeStats stats;
  };
  std::vector<Row> rows;

  MemScopeStats& find_or_add(const char* tag) {
    for (auto& row : rows) {
      if (row.tag == tag || std::strcmp(row.tag, tag) == 0) return row.stats;
    }
    rows.push_back(Row{tag, {}});
    return rows.back().stats;
  }

  const MemScopeStats* find(const char* tag) const {
    for (const auto& row : rows) {
      if (row.tag == tag || std::strcmp(row.tag, tag) == 0) return &row.stats;
    }
    return nullptr;
  }
};

void merge_into(std::vector<MemScopeSnapshot>& out, const char* tag,
                const MemScopeStats& stats) {
  for (auto& scope : out) {
    if (scope.name == tag) {
      scope.stats.merge(stats);
      return;
    }
  }
  out.push_back(MemScopeSnapshot{tag, stats});
}

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadState>> threads;
  /// Name-merged stats of threads that have exited.
  std::vector<MemScopeSnapshot> retired;
};

/// Intentionally leaked: frees can arrive after static destructors run.
Registry& registry() {
  static Registry* reg = new Registry;
  return *reg;
}

/// Registers the calling thread's state on first use; the destructor runs
/// at thread exit and folds the stats into the retired accumulator, so
/// worker threads neither leak registry slots nor lose recorded counts.
struct Registration {
  ThreadState* state = nullptr;
  ~Registration() {
    tl_exiting = true;
    if (state == nullptr) return;
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    for (const auto& row : state->rows)
      merge_into(reg.retired, row.tag, row.stats);
    for (auto it = reg.threads.begin(); it != reg.threads.end(); ++it) {
      if (it->get() == state) {
        reg.threads.erase(it);
        break;
      }
    }
  }
};
thread_local Registration tl_reg;

ThreadState& local_state() {
  if (tl_reg.state == nullptr) {
    auto owned = std::make_unique<ThreadState>();
    tl_reg.state = owned.get();
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.threads.push_back(std::move(owned));
  }
  return *tl_reg.state;
}

/// ptr -> (size, scope) of every live tracked allocation, sharded to keep
/// alloc/free contention between worker threads low. Intentionally leaked.
struct PtrTable {
  struct Entry {
    std::size_t size;
    const char* tag;
  };
  struct Shard {
    std::mutex mutex;
    std::unordered_map<void*, Entry> map;
  };
  static constexpr std::size_t kShards = 64;
  std::array<Shard, kShards> shards;

  Shard& shard_for(void* p) {
    auto h = reinterpret_cast<std::uintptr_t>(p);
    h ^= h >> 12;
    return shards[h & (kShards - 1)];
  }

  void insert(void* p, std::size_t size, const char* tag) {
    Shard& s = shard_for(p);
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.map[p] = Entry{size, tag};
  }

  bool erase(void* p, Entry* out) {
    Shard& s = shard_for(p);
    const std::lock_guard<std::mutex> lock(s.mutex);
    auto it = s.map.find(p);
    if (it == s.map.end()) return false;
    *out = it->second;
    s.map.erase(it);
    return true;
  }
};

PtrTable& table() {
  static PtrTable* t = new PtrTable;
  return *t;
}

/// Attributes a successful allocation to the calling thread's innermost
/// scope. Internal bookkeeping allocations recurse into operator new with
/// tl_in_hook set and pass through unrecorded.
void record_alloc(void* p, std::size_t size) {
  if (!Memstats::enabled() || tl_in_hook || tl_exiting) return;
  const char* tag = tl_tag;
  if (tag == nullptr) return;
  tl_in_hook = true;
  MemScopeStats& s = local_state().find_or_add(tag);
  s.allocs += 1;
  s.alloc_bytes += size;
  s.live_bytes += static_cast<std::int64_t>(size);
  if (s.live_bytes > s.peak_live_bytes) s.peak_live_bytes = s.live_bytes;
  table().insert(p, size, tag);
  tl_in_hook = false;
}

/// Matches a free against the pointer table and credits it to the
/// allocating scope (in the calling thread's stats — per-scope counts are
/// summed across threads, so the credit lands in the right scope row of
/// the merged view regardless of which thread frees).
void record_free(void* p) {
  tl_in_hook = true;
  PtrTable::Entry entry;
  if (table().erase(p, &entry) && !tl_exiting) {
    MemScopeStats& s = local_state().find_or_add(entry.tag);
    s.frees += 1;
    s.freed_bytes += entry.size;
    s.live_bytes -= static_cast<std::int64_t>(entry.size);
  }
  tl_in_hook = false;
}

/// malloc with over-alignment support; nullptr on failure.
void* raw_alloc(std::size_t size, std::size_t align) noexcept {
  if (size == 0) size = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(size);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (::posix_memalign(&p, align, size) != 0) return nullptr;
  return p;
}

void* hook_alloc(std::size_t size, std::size_t align) {
  for (;;) {
    void* p = raw_alloc(size, align);
    if (p != nullptr) {
      record_alloc(p, size);
      return p;
    }
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* hook_alloc_nothrow(std::size_t size, std::size_t align) noexcept {
  try {
    return hook_alloc(size, align);
  } catch (...) {
    return nullptr;
  }
}

void hook_free(void* p) noexcept {
  if (p == nullptr) return;
  // Fast path: a process that never enabled memstats frees straight
  // through. Once tracking ever ran, frees consult the table so tracked
  // pointers are debited and stale entries can never alias a reused
  // address.
  if (Memstats::ever_enabled() && !tl_in_hook) record_free(p);
  std::free(p);
}

}  // namespace

void MemScopeStats::merge(const MemScopeStats& other) {
  allocs += other.allocs;
  frees += other.frees;
  alloc_bytes += other.alloc_bytes;
  freed_bytes += other.freed_bytes;
  live_bytes += other.live_bytes;
  peak_live_bytes += other.peak_live_bytes;
}

void MemHotTotals::merge(const MemHotTotals& other) {
  enabled = enabled || other.enabled;
  allocs += other.allocs;
  alloc_bytes += other.alloc_bytes;
  frees += other.frees;
  freed_bytes += other.freed_bytes;
  peak_live_bytes = std::max(peak_live_bytes, other.peak_live_bytes);
  max_queue_depth = std::max(max_queue_depth, other.max_queue_depth);
  queue_depth_p99 = std::max(queue_depth_p99, other.queue_depth_p99);
  sift_up_steps += other.sift_up_steps;
  sift_down_steps += other.sift_down_steps;
  scans += other.scans;
  scan_nodes += other.scan_nodes;
  packet_lifetime_p99_ns =
      std::max(packet_lifetime_p99_ns, other.packet_lifetime_p99_ns);
}

std::uint64_t current_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // Linux reports ru_maxrss in KiB (macOS in bytes; close enough for the
  // dashboards this feeds — the repo targets Linux CI).
  return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
  return 0;
#endif
}

void Memstats::set_enabled(bool on) {
  if (on) ever_enabled_.store(true, std::memory_order_relaxed);
  enabled_.store(on, std::memory_order_relaxed);
}

MemScopeStats Memstats::thread_totals_for(const char* tag) {
  if (tl_reg.state == nullptr) return {};
  const MemScopeStats* found = tl_reg.state->find(tag);
  return found != nullptr ? *found : MemScopeStats{};
}

void Memstats::reset_thread_peaks() {
  if (tl_reg.state == nullptr) return;
  for (auto& row : tl_reg.state->rows)
    row.stats.peak_live_bytes = row.stats.live_bytes;
}

std::vector<MemScopeSnapshot> Memstats::snapshot() {
  Registry& reg = registry();
  std::vector<MemScopeSnapshot> out;
  {
    const std::lock_guard<std::mutex> lock(reg.mutex);
    out = reg.retired;
    for (const auto& thread : reg.threads)
      for (const auto& row : thread->rows)
        merge_into(out, row.tag, row.stats);
  }
  std::sort(out.begin(), out.end(),
            [](const MemScopeSnapshot& a, const MemScopeSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

std::string Memstats::format_table() {
  const auto scopes = snapshot();
  std::string out = "# memstats: per-scope allocation totals\n";
  char line[192];
  std::snprintf(line, sizeof(line), "%-16s %12s %12s %14s %14s %14s\n",
                "scope", "allocs", "frees", "alloc_kb", "live_kb",
                "peak_kb");
  out += line;
  for (const auto& scope : scopes) {
    std::snprintf(line, sizeof(line),
                  "%-16s %12llu %12llu %14.1f %14.1f %14.1f\n",
                  scope.name.c_str(),
                  static_cast<unsigned long long>(scope.stats.allocs),
                  static_cast<unsigned long long>(scope.stats.frees),
                  static_cast<double>(scope.stats.alloc_bytes) / 1024.0,
                  static_cast<double>(scope.stats.live_bytes) / 1024.0,
                  static_cast<double>(scope.stats.peak_live_bytes) / 1024.0);
    out += line;
  }
  if (scopes.empty()) out += "# (no scoped allocations recorded)\n";
  return out;
}

const char* Memstats::push_scope(const char* tag) {
  const char* prev = tl_tag;
  tl_tag = tag;
  return prev;
}

void Memstats::pop_scope(const char* prev) { tl_tag = prev; }

}  // namespace sld::obs

// ---------------------------------------------------------------------------
// Global allocation hooks. Replacing the usual global operator new/delete
// set routes every heap allocation in the process through memstats; with
// tracking off (the default, and any process that never passes --memstats)
// each call is plain malloc/free behind one relaxed atomic load.

void* operator new(std::size_t size) {
  return sld::obs::hook_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return sld::obs::hook_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return sld::obs::hook_alloc_nothrow(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return sld::obs::hook_alloc_nothrow(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return sld::obs::hook_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return sld::obs::hook_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return sld::obs::hook_alloc_nothrow(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return sld::obs::hook_alloc_nothrow(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { sld::obs::hook_free(p); }
void operator delete[](void* p) noexcept { sld::obs::hook_free(p); }
void operator delete(void* p, std::size_t) noexcept {
  sld::obs::hook_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  sld::obs::hook_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  sld::obs::hook_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  sld::obs::hook_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  sld::obs::hook_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  sld::obs::hook_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  sld::obs::hook_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  sld::obs::hook_free(p);
}
