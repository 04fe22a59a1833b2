// Allocation-telemetry determinism: scope attribution (innermost tag
// wins, frees credited to the allocating scope), the headline invariant —
// a memstats-on trial is bit-for-bit identical to a memstats-off one on
// every simulation output — exact per-scope and roll-up stability across
// --jobs 1 vs 4, and a property test over random scope nestings (repro
// via SLD_PROP_SEED, like every prop test).
#include "obs/memstats.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/secure_localization.hpp"
#include "obs/trace.hpp"
#include "prop/prop.hpp"
#include "util/geometry.hpp"

namespace sld {
namespace {

using obs::MemScopeStats;
using obs::Memstats;

// Defeats allocation elision: at -O2 the compiler may fold a matched
// new/delete pair away entirely (no operator call at all), which would
// make these tests vacuous. Passing the pointer through an opaque asm
// boundary forces the allocation to actually happen.
char* opaque(char* p) {
  asm volatile("" : "+r"(p) : : "memory");
  return p;
}

// A small paper-shaped trial, fast enough to run several times per test.
core::SystemConfig small_config(std::uint64_t seed) {
  core::SystemConfig c;
  c.deployment.total_nodes = 200;
  c.deployment.beacon_count = 20;
  c.deployment.malicious_beacon_count = 2;
  c.deployment.field = util::Rect::square(450.0);
  c.rtt_calibration_samples = 1000;
  c.seed = seed;
  return c;
}

// --- scope attribution -----------------------------------------------------

TEST(Memstats, DisabledScopeRecordsNothing) {
  Memstats::set_enabled(false);
  const MemScopeStats before = Memstats::thread_totals_for("ms_test_off");
  {
    SLD_MEM_SCOPE("ms_test_off");
    char* p = opaque(new char[512]);
    delete[] p;
  }
  const MemScopeStats after = Memstats::thread_totals_for("ms_test_off");
  EXPECT_EQ(after.allocs, before.allocs);
  EXPECT_EQ(after.alloc_bytes, before.alloc_bytes);
  EXPECT_EQ(after.frees, before.frees);
}

TEST(Memstats, ScopeCountsAllocsBytesAndMatchedFrees) {
  Memstats::set_enabled(true);
  const MemScopeStats before = Memstats::thread_totals_for("ms_test_a");
  char* p = nullptr;
  {
    SLD_MEM_SCOPE("ms_test_a");
    p = opaque(new char[1000]);
  }
  // The free happens OUTSIDE the scope: the pointer table must still
  // credit it back to the allocating scope.
  delete[] p;
  const MemScopeStats after = Memstats::thread_totals_for("ms_test_a");
  Memstats::set_enabled(false);
  EXPECT_EQ(after.allocs - before.allocs, 1u);
  EXPECT_GE(after.alloc_bytes - before.alloc_bytes, 1000u);
  EXPECT_EQ(after.frees - before.frees, 1u);
  EXPECT_EQ(after.freed_bytes - before.freed_bytes,
            after.alloc_bytes - before.alloc_bytes);
  EXPECT_EQ(after.live_bytes, before.live_bytes);
}

TEST(Memstats, InnermostScopeWinsAndOuterResumesAfter) {
  Memstats::set_enabled(true);
  const MemScopeStats outer0 = Memstats::thread_totals_for("ms_test_out");
  const MemScopeStats inner0 = Memstats::thread_totals_for("ms_test_in");
  {
    SLD_MEM_SCOPE("ms_test_out");
    char* a = opaque(new char[64]);
    {
      SLD_MEM_SCOPE("ms_test_in");
      char* b = opaque(new char[128]);
      delete[] b;
    }
    char* c = opaque(new char[64]);
    delete[] a;
    delete[] c;
  }
  const MemScopeStats outer1 = Memstats::thread_totals_for("ms_test_out");
  const MemScopeStats inner1 = Memstats::thread_totals_for("ms_test_in");
  Memstats::set_enabled(false);
  // The inner allocation went to the inner tag only; the outer tag got
  // the allocations before AND after the nested scope.
  EXPECT_EQ(inner1.allocs - inner0.allocs, 1u);
  EXPECT_EQ(outer1.allocs - outer0.allocs, 2u);
  EXPECT_EQ(inner1.frees - inner0.frees, 1u);
  EXPECT_EQ(outer1.frees - outer0.frees, 2u);
}

TEST(Memstats, UnscopedAllocationsPassThroughUnrecorded) {
  Memstats::set_enabled(true);
  const auto snaps_before = Memstats::snapshot();
  std::uint64_t total_before = 0;
  for (const auto& s : snaps_before) total_before += s.stats.allocs;
  char* p = opaque(new char[2048]);  // no SLD_MEM_SCOPE anywhere
  delete[] p;
  const auto snaps_after = Memstats::snapshot();
  Memstats::set_enabled(false);
  std::uint64_t total_after = 0;
  for (const auto& s : snaps_after) total_after += s.stats.allocs;
  EXPECT_EQ(total_after, total_before);
}

// --- the headline invariant ------------------------------------------------

TEST(Memstats, MemstatsOnTrialIsBitForBitIdenticalToOff) {
  obs::MemorySink trace_off, trace_on;
  obs::MemorySink ts_off, ts_on;

  const auto run_with = [&](bool memstats, obs::MemorySink* trace,
                            obs::MemorySink* ts) {
    core::SystemConfig c = small_config(31);
    c.memstats = memstats;
    c.trace_sink = trace;
    c.telemetry.enabled = true;
    c.telemetry.cadence_ns = 250'000'000;
    c.telemetry.sink = ts;
    core::SecureLocalizationSystem sys(c);
    return sys.run();
  };
  const core::TrialSummary off = run_with(false, &trace_off, &ts_off);
  const core::TrialSummary on = run_with(true, &trace_on, &ts_on);
  Memstats::set_enabled(false);

  // The event trace is byte-identical: memstats drew no randomness,
  // scheduled nothing, and perturbed no event ordering.
  ASSERT_GT(trace_off.lines().size(), 0u);
  EXPECT_EQ(trace_on.lines(), trace_off.lines());

  // The telemetry stream keeps identical window timing (the on-stream
  // legitimately gains mem.*/hot.* instrument entries, so full lines are
  // compared only up to each record's timestamp field).
  ASSERT_EQ(ts_on.lines().size(), ts_off.lines().size());
  for (std::size_t i = 0; i < ts_on.lines().size(); ++i) {
    const auto stamp = [](const std::string& line) {
      return line.substr(0, line.find(','));
    };
    EXPECT_EQ(stamp(ts_on.lines()[i]), stamp(ts_off.lines()[i])) << i;
  }

  // Every simulation output matches exactly.
  EXPECT_EQ(on.sched_events, off.sched_events);
  EXPECT_EQ(on.channel.transmissions, off.channel.transmissions);
  EXPECT_EQ(on.channel.deliveries, off.channel.deliveries);
  EXPECT_EQ(on.channel.dropped_by_fault, off.channel.dropped_by_fault);
  EXPECT_EQ(on.malicious_revoked, off.malicious_revoked);
  EXPECT_EQ(on.benign_revoked, off.benign_revoked);
  EXPECT_EQ(on.sensors_localized, off.sensors_localized);
  EXPECT_EQ(on.detection_rate, off.detection_rate);
  EXPECT_EQ(on.false_positive_rate, off.false_positive_rate);
  EXPECT_EQ(on.mean_localization_error_ft, off.mean_localization_error_ft);
  EXPECT_EQ(on.radio_energy_uj, off.radio_energy_uj);

  // And only the on-run carries a memstats roll-up, with real content.
  EXPECT_FALSE(off.memhot.enabled);
  ASSERT_TRUE(on.memhot.enabled);
  EXPECT_GT(on.memhot.allocs, 0u);
  EXPECT_GT(on.memhot.scans, 0u);
  EXPECT_GT(on.memhot.max_queue_depth, 0u);
  EXPECT_GT(on.memhot.sift_down_steps, 0u);
}

/// The integer right after `"key":` in a metrics_json document.
std::uint64_t json_uint(const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\":");
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return 0;
  return std::stoull(json.substr(at + key.size() + 3));
}

TEST(Memstats, HotScansAreTheChannelTransmissions) {
  // hot.scans reads ChannelStats::transmissions: every transmit notes its
  // scan exactly once, which the fan-out histogram's sample count checks
  // independently. hot.scan_nodes reads ChannelStats::scan_nodes.
  core::SystemConfig c = small_config(17);
  c.memstats = true;
  c.telemetry.enabled = true;
  c.faults.loss_probability = 0.1;
  core::SecureLocalizationSystem sys(c);
  const core::TrialSummary s = sys.run();
  Memstats::set_enabled(false);

  const std::string& json = s.metrics_json;
  ASSERT_GT(s.channel.transmissions, 0u);
  EXPECT_EQ(json_uint(json, "hot.scans"), s.channel.transmissions);
  EXPECT_EQ(json_uint(json, "channel.tx"), s.channel.transmissions);
  EXPECT_EQ(json_uint(json, "hot.scan_fanout\":{\"count"),
            s.channel.transmissions);
  EXPECT_EQ(s.memhot.scans, s.channel.transmissions);
  EXPECT_GE(s.channel.scan_nodes, s.channel.transmissions);
  EXPECT_EQ(json_uint(json, "hot.scan_nodes"), s.channel.scan_nodes);
  EXPECT_EQ(s.memhot.scan_nodes, s.channel.scan_nodes);
}

// --- the allocation-free message path --------------------------------------

TEST(Memstats, PaperScaleTrialMessagePathIsAllocationFree) {
  // A paper-scale trial (the §4 defaults: 1,000 nodes, 100 beacons, one
  // wormhole): building, MACing, queueing and delivering ~22k messages
  // allocates nothing per message. Payloads are inline, the MAC streams,
  // the scheduler and channel only grow their pools, and the nodes keep
  // their in-flight tables and references in the trial's arena. An
  // outermost scope around run() leaves no allocation of the run
  // unattributed, so the total over every scope is all of them: mostly
  // detection and revocation bookkeeping and the pools' growth, far below
  // one allocation in fifty events.
  core::SystemConfig c;
  c.rtt_calibration_samples = 1000;
  c.seed = 3;
  c.memstats = true;
  const auto totals = [] {
    return std::array<MemScopeStats, 3>{
        Memstats::thread_totals_for("messages"),
        Memstats::thread_totals_for("channel"),
        Memstats::thread_totals_for("scheduler")};
  };
  const auto all_allocs = [] {
    std::uint64_t n = 0;
    for (const auto& s : Memstats::snapshot()) n += s.stats.allocs;
    return n;
  };
  const auto b = totals();
  core::TrialSummary summary;
  std::uint64_t run_allocs = 0;
  {
    core::SecureLocalizationSystem sys(c);
    const std::uint64_t all_before = all_allocs();
    {
      SLD_MEM_SCOPE("ms_test_trial_run");
      summary = sys.run();
    }
    run_allocs = all_allocs() - all_before;
  }
  const auto a = totals();
  Memstats::set_enabled(false);

  ASSERT_GT(summary.sched_events, 20'000u);
  ASSERT_GT(summary.channel.deliveries, 10'000u);
  EXPECT_EQ(a[0].allocs - b[0].allocs, 0u) << "messages scope allocated";
  const std::uint64_t pool_allocs =
      (a[1].allocs - b[1].allocs) + (a[2].allocs - b[2].allocs);
  EXPECT_GT(pool_allocs, 0u);  // the scopes are live: pools did grow
  EXPECT_LT(static_cast<double>(run_allocs) /
                static_cast<double>(summary.sched_events),
            0.02)
      << run_allocs << " allocations in run() for " << summary.sched_events
      << " events (channel " << a[1].allocs - b[1].allocs << " + scheduler "
      << a[2].allocs - b[2].allocs << " with setup)";
}

// --- jobs invariance -------------------------------------------------------

// Sums each scope's (allocs, alloc_bytes, frees) across all threads.
std::map<std::string, std::array<std::uint64_t, 3>> scope_counts() {
  std::map<std::string, std::array<std::uint64_t, 3>> out;
  for (const auto& s : Memstats::snapshot()) {
    out[s.name] = {s.stats.allocs, s.stats.alloc_bytes, s.stats.frees};
  }
  return out;
}

TEST(Memstats, RollupAndPerScopeCountsIdenticalAcrossJobs1And4) {
  const auto run_jobs = [](std::size_t jobs) {
    core::ExperimentConfig e;
    e.base = small_config(7);
    e.base.memstats = true;
    e.trials = 4;
    e.jobs = jobs;
    return core::run_experiment(e);
  };

  const auto before1 = scope_counts();
  const auto agg1 = run_jobs(1);
  const auto mid = scope_counts();
  const auto agg4 = run_jobs(4);
  const auto after = scope_counts();
  Memstats::set_enabled(false);

  // The per-trial roll-up merged into the aggregate: every exact field
  // identical between serial and fanned-out execution.
  ASSERT_TRUE(agg1.memhot.enabled);
  ASSERT_TRUE(agg4.memhot.enabled);
  EXPECT_EQ(agg4.memhot.allocs, agg1.memhot.allocs);
  EXPECT_EQ(agg4.memhot.alloc_bytes, agg1.memhot.alloc_bytes);
  EXPECT_EQ(agg4.memhot.frees, agg1.memhot.frees);
  EXPECT_EQ(agg4.memhot.freed_bytes, agg1.memhot.freed_bytes);
  EXPECT_EQ(agg4.memhot.max_queue_depth, agg1.memhot.max_queue_depth);
  EXPECT_EQ(agg4.memhot.sift_down_steps, agg1.memhot.sift_down_steps);
  EXPECT_EQ(agg4.memhot.scans, agg1.memhot.scans);
  EXPECT_EQ(agg4.memhot.scan_nodes, agg1.memhot.scan_nodes);
  EXPECT_GT(agg1.memhot.allocs, 0u);

  // The simulation itself matched too (seed-ordered merge contract).
  EXPECT_EQ(agg4.total_sched_events, agg1.total_sched_events);
  EXPECT_EQ(agg4.detection_rate.mean(), agg1.detection_rate.mean());

  // Global per-scope counters advanced by the same amount in both runs:
  // trials are sealed to one worker, so fan-out cannot shift attribution.
  for (const auto& [scope, counts1] : mid) {
    const auto b = before1.count(scope) ? before1.at(scope)
                                        : std::array<std::uint64_t, 3>{};
    const auto a = after.at(scope);
    const std::array<std::uint64_t, 3> delta_jobs1{
        counts1[0] - b[0], counts1[1] - b[1], counts1[2] - b[2]};
    const std::array<std::uint64_t, 3> delta_jobs4{
        a[0] - counts1[0], a[1] - counts1[1], a[2] - counts1[2]};
    EXPECT_EQ(delta_jobs4, delta_jobs1) << "scope " << scope;
  }
}

// --- property: random scope nestings account exactly -----------------------

// Walks the case recursively: element i opens scope tags[v % 3], makes
// one v-sized allocation, recurses into the rest, then frees — an
// arbitrary nesting of scopes with interleaved lifetimes.
void nest_and_allocate(const std::vector<std::int64_t>& ops, std::size_t i,
                       const std::vector<const char*>& tags) {
  if (i >= ops.size()) return;
  const std::int64_t v = ops[i];
  SLD_MEM_SCOPE(tags[static_cast<std::size_t>(v) % tags.size()]);
  char* p = opaque(new char[static_cast<std::size_t>(16 + v)]);
  nest_and_allocate(ops, i + 1, tags);
  delete[] p;
}

TEST(Memstats, PropRandomScopeNestingsAccountExactly) {
  static const std::vector<const char*> kTags{"ms_prop_a", "ms_prop_b",
                                              "ms_prop_c"};
  Memstats::set_enabled(true);
  const bool ok = prop::forall(
      "random scope nestings account exactly",
      prop::vector_of(prop::int_range(0, 4096), 1, 16),
      [&](const std::vector<std::int64_t>& ops) {
        std::array<MemScopeStats, 3> before;
        for (std::size_t k = 0; k < kTags.size(); ++k)
          before[k] = Memstats::thread_totals_for(kTags[k]);

        nest_and_allocate(ops, 0, kTags);

        // Reference model: element v allocates 16+v bytes under tag v%3.
        std::array<std::uint64_t, 3> want_allocs{}, want_bytes{};
        for (const std::int64_t v : ops) {
          const auto k = static_cast<std::size_t>(v) % kTags.size();
          want_allocs[k] += 1;
          want_bytes[k] += static_cast<std::uint64_t>(16 + v);
        }
        for (std::size_t k = 0; k < kTags.size(); ++k) {
          const MemScopeStats now = Memstats::thread_totals_for(kTags[k]);
          if (now.allocs - before[k].allocs != want_allocs[k]) return false;
          if (now.alloc_bytes - before[k].alloc_bytes != want_bytes[k])
            return false;
          // Every pointer was freed, and matched back to its scope.
          if (now.frees - before[k].frees != want_allocs[k]) return false;
          if (now.live_bytes != before[k].live_bytes) return false;
        }
        return true;
      },
      prop::Config{});
  Memstats::set_enabled(false);
  EXPECT_TRUE(ok);
}

// --- roll-up merge ---------------------------------------------------------

TEST(Memstats, MemHotTotalsMergeSumsCountsAndMaxesDepths) {
  obs::MemHotTotals a;
  a.enabled = true;
  a.allocs = 10;
  a.alloc_bytes = 100;
  a.max_queue_depth = 5;
  a.queue_depth_p99 = 4.0;
  a.scans = 3;
  a.scan_nodes = 9;
  obs::MemHotTotals b;
  b.enabled = true;
  b.allocs = 7;
  b.alloc_bytes = 50;
  b.max_queue_depth = 9;
  b.queue_depth_p99 = 2.0;
  b.scans = 1;
  b.scan_nodes = 5;
  a.merge(b);
  EXPECT_TRUE(a.enabled);
  EXPECT_EQ(a.allocs, 17u);
  EXPECT_EQ(a.alloc_bytes, 150u);
  EXPECT_EQ(a.max_queue_depth, 9u);  // max, not sum
  EXPECT_EQ(a.queue_depth_p99, 4.0);
  EXPECT_EQ(a.scans, 4u);
  EXPECT_EQ(a.scan_nodes, 14u);
  EXPECT_DOUBLE_EQ(a.scan_fanout_mean(), 14.0 / 4.0);
}

}  // namespace
}  // namespace sld
