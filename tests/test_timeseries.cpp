// Streaming telemetry and SLO monitors: sampler cadence determinism, ring
// eviction accounting, rate derivation, spec parsing, breach hysteresis
// (including a property test that a rule NEVER fires before its sustain
// window elapses), the gauge-lifecycle reset between trials, the scheduler
// time probe, the headline invariant — a telemetry-enabled trial is
// bit-for-bit identical to an untelemetered one — and the pinned digests
// of the in-system instrument output and of a flood trial's trace.
#include "obs/timeseries.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/secure_localization.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "prop/prop.hpp"
#include "revocation/failover.hpp"
#include "revocation/shard.hpp"
#include "sim/deployment.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace sld {
namespace {

constexpr std::int64_t kMs = 1'000'000;

obs::TimeseriesOptions options(std::int64_t cadence_ns,
                               std::size_t ring = 64,
                               obs::TraceSink* sink = nullptr) {
  obs::TimeseriesOptions o;
  o.enabled = true;
  o.cadence_ns = cadence_ns;
  o.ring_capacity = ring;
  o.sink = sink;
  return o;
}

// --- sampler mechanics -----------------------------------------------------

TEST(Timeseries, CadenceIsDeterministicUnderIrregularAdvances) {
  obs::MetricsRegistry reg;
  reg.counter("c");
  obs::TimeseriesSampler ts(reg, options(250 * kMs));
  ts.begin(0, 1);
  // Irregular observation times; windows must land on exact multiples of
  // the cadence regardless.
  for (const std::int64_t t : {40 * kMs, 60 * kMs, 700 * kMs, 701 * kMs,
                               1499 * kMs, 2000 * kMs}) {
    ts.advance_to(t);
  }
  EXPECT_EQ(ts.windows_closed(), 8u);  // 2000 / 250
  std::uint64_t idx = 0;
  for (const auto& w : ts.ring()) {
    EXPECT_EQ(w.index, idx);
    EXPECT_EQ(w.t_start_ns, static_cast<std::int64_t>(idx) * 250 * kMs);
    EXPECT_EQ(w.t_end_ns, static_cast<std::int64_t>(idx + 1) * 250 * kMs);
    ++idx;
  }
}

TEST(Timeseries, EventAtWindowEdgeBelongsToNextWindow) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("c");
  obs::TimeseriesSampler ts(reg, options(100 * kMs));
  ts.begin(0, 1);
  // The clock reaches the edge BEFORE the edge event runs (scheduler
  // probe contract), so a bump at exactly t=100ms lands in window 1.
  ts.advance_to(100 * kMs);
  c.inc();
  ts.advance_to(200 * kMs);
  ASSERT_EQ(ts.ring().size(), 2u);
  EXPECT_EQ(*ts.ring()[0].delta("c"), 0u);
  EXPECT_EQ(*ts.ring()[1].delta("c"), 1u);
}

TEST(Timeseries, RingEvictsOldestAndAccountsForIt) {
  obs::MetricsRegistry reg;
  reg.counter("c");
  obs::TimeseriesSampler ts(reg, options(10 * kMs, /*ring=*/4));
  ts.begin(0, 1);
  ts.advance_to(100 * kMs);  // 10 windows through a 4-window ring
  EXPECT_EQ(ts.windows_closed(), 10u);
  EXPECT_EQ(ts.evicted(), 6u);
  ASSERT_EQ(ts.ring().size(), 4u);
  EXPECT_EQ(ts.ring().front().index, 6u);
  EXPECT_EQ(ts.ring().back().index, 9u);
}

TEST(Timeseries, DeltasAndRatesMatchHandComputedValues) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("c");
  obs::Gauge& g = reg.gauge("g");
  c.inc(5);  // pre-begin value: the baseline, not part of window 0's delta
  obs::TimeseriesSampler ts(reg, options(500 * kMs));
  ts.begin(0, 1);
  c.inc(10);
  g.set(3.5);
  ts.advance_to(500 * kMs);
  c.inc(2);
  ts.advance_to(1000 * kMs);
  ASSERT_EQ(ts.ring().size(), 2u);
  const auto& w0 = ts.ring()[0];
  const auto& w1 = ts.ring()[1];
  EXPECT_EQ(*w0.counter("c"), 15u);  // cumulative
  EXPECT_EQ(*w0.delta("c"), 10u);    // baseline 5 excluded
  EXPECT_DOUBLE_EQ(*w0.gauge("g"), 3.5);
  EXPECT_DOUBLE_EQ(w0.rate_per_s("c"), 20.0);  // 10 per 0.5 s
  EXPECT_EQ(*w1.counter("c"), 17u);
  EXPECT_EQ(*w1.delta("c"), 2u);
  EXPECT_DOUBLE_EQ(w1.rate_per_s("c"), 4.0);
  // Lookups for unknown metrics answer "absent", not garbage.
  EXPECT_EQ(w0.counter("nope"), nullptr);
  EXPECT_EQ(w0.gauge("nope"), nullptr);
  EXPECT_DOUBLE_EQ(w0.rate_per_s("nope"), 0.0);
}

TEST(Timeseries, FinishClosesPartialTailWindow) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("c");
  obs::TimeseriesSampler ts(reg, options(100 * kMs));
  ts.begin(0, 1);
  ts.advance_to(100 * kMs);
  c.inc(4);
  ts.finish(150 * kMs);  // trial stops mid-window
  ASSERT_EQ(ts.ring().size(), 2u);
  const auto& tail = ts.ring().back();
  EXPECT_EQ(tail.t_start_ns, 100 * kMs);
  EXPECT_EQ(tail.t_end_ns, 150 * kMs);
  EXPECT_EQ(*tail.delta("c"), 4u);
  // Rates divide by the ACTUAL window length, not the cadence.
  EXPECT_DOUBLE_EQ(tail.rate_per_s("c"), 80.0);
  // Finishing exactly on a window edge must not create an empty window.
  obs::MetricsRegistry reg2;
  reg2.counter("c");
  obs::TimeseriesSampler ts2(reg2, options(100 * kMs));
  ts2.begin(0, 1);
  ts2.finish(200 * kMs);
  EXPECT_EQ(ts2.windows_closed(), 2u);
}

TEST(Timeseries, MidTrialCounterRegistrationDeltasFromZero) {
  obs::MetricsRegistry reg;
  reg.counter("early");
  obs::TimeseriesSampler ts(reg, options(100 * kMs));
  ts.begin(0, 1);
  ts.advance_to(100 * kMs);
  obs::Counter& late = reg.counter("late");
  late.inc(7);
  ts.advance_to(200 * kMs);
  EXPECT_EQ(ts.ring()[0].counter("late"), nullptr);
  EXPECT_EQ(*ts.ring()[1].delta("late"), 7u);
}

TEST(Timeseries, PresampleHookSeesWindowEdgeBeforeSnapshot) {
  obs::MetricsRegistry reg;
  obs::Counter& mirror = reg.counter("mirror");
  obs::TimeseriesSampler ts(reg, options(100 * kMs));
  std::vector<std::int64_t> hook_times;
  ts.set_presample_hook([&](std::int64_t t) {
    hook_times.push_back(t);
    mirror.inc(1);  // a mirror sync right at the edge is visible in-window
  });
  ts.begin(0, 1);
  ts.advance_to(250 * kMs);
  EXPECT_EQ(hook_times, (std::vector<std::int64_t>{100 * kMs, 200 * kMs}));
  EXPECT_EQ(*ts.ring()[0].delta("mirror"), 1u);
  EXPECT_EQ(*ts.ring()[1].delta("mirror"), 1u);
}

TEST(Timeseries, StreamEmitsMetaHeaderAndWindowRecords) {
  obs::MemorySink sink;
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("x.count");
  obs::TimeseriesSampler ts(reg, options(100 * kMs, 64, &sink));
  ts.begin(0, 42);
  c.inc(3);
  ts.advance_to(100 * kMs);
  ASSERT_EQ(sink.lines().size(), 2u);
  EXPECT_NE(sink.lines()[0].find("\"e\":\"ts.meta\""), std::string::npos);
  EXPECT_NE(sink.lines()[0].find("\"schema\":\"timeseries/v1\""),
            std::string::npos);
  EXPECT_NE(sink.lines()[0].find("\"seed\":42"), std::string::npos);
  EXPECT_NE(sink.lines()[1].find("\"e\":\"ts.window\""), std::string::npos);
  EXPECT_NE(sink.lines()[1].find("\"deltas\":{\"x.count\":3}"),
            std::string::npos);
}

// --- SLO spec parsing ------------------------------------------------------

TEST(SloSpec, ParsesFullGrammar) {
  const auto rules = obs::parse_slo_spec(
      "# comment line\n"
      "shed  rate(bs.ingest.shed) > 50 sustain=2 clear=3;\n"
      "depth gauge(q.depth) >= 16\n"
      "slow  p99(lat_ms) <= 500;"
      "burny burn(bad/total, 0.01) > 1 sustain=4");
  ASSERT_EQ(rules.size(), 4u);
  EXPECT_EQ(rules[0].name, "shed");
  EXPECT_EQ(rules[0].source, obs::SloSource::kRate);
  EXPECT_EQ(rules[0].metric, "bs.ingest.shed");
  EXPECT_EQ(rules[0].cmp, obs::SloCmp::kGt);
  EXPECT_DOUBLE_EQ(rules[0].threshold, 50.0);
  EXPECT_EQ(rules[0].sustain_windows, 2u);
  EXPECT_EQ(rules[0].clear_windows, 3u);
  EXPECT_EQ(rules[1].cmp, obs::SloCmp::kGe);
  EXPECT_EQ(rules[1].sustain_windows, 1u);
  EXPECT_EQ(rules[2].cmp, obs::SloCmp::kLe);
  EXPECT_EQ(rules[3].source, obs::SloSource::kBurn);
  EXPECT_EQ(rules[3].metric, "bad");
  EXPECT_EQ(rules[3].total_metric, "total");
  EXPECT_DOUBLE_EQ(rules[3].objective, 0.01);
}

TEST(SloSpec, RejectsMalformedRules) {
  EXPECT_THROW(obs::parse_slo_spec("x unknown(m) > 1"),
               std::invalid_argument);
  EXPECT_THROW(obs::parse_slo_spec("x rate(m > 1"), std::invalid_argument);
  EXPECT_THROW(obs::parse_slo_spec("x rate(m) >"), std::invalid_argument);
  EXPECT_THROW(obs::parse_slo_spec("x rate(m) > abc"),
               std::invalid_argument);
  EXPECT_THROW(obs::parse_slo_spec("x rate(m) !! 1"), std::invalid_argument);
  EXPECT_THROW(obs::parse_slo_spec("x rate(m) > 1 sustain=0"),
               std::invalid_argument);
  EXPECT_THROW(obs::parse_slo_spec("x burn(bad) > 1"),
               std::invalid_argument);
  EXPECT_THROW(obs::parse_slo_spec("rate(m) > 1"), std::invalid_argument);
}

// --- SLO monitor -----------------------------------------------------------

obs::WindowSample gauge_window(std::uint64_t idx, double value) {
  obs::WindowSample w;
  w.index = idx;
  w.t_start_ns = static_cast<std::int64_t>(idx) * 100 * kMs;
  w.t_end_ns = w.t_start_ns + 100 * kMs;
  w.gauges.emplace_back("x", value);
  return w;
}

TEST(SloMonitor, BreachesAfterSustainAndRecoversAfterClear) {
  obs::SloMonitor mon(
      obs::parse_slo_spec("r gauge(x) > 10 sustain=3 clear=2"));
  const double values[] = {20, 20, 0, 20, 20, 20, 20, 0, 0, 0};
  std::uint64_t idx = 0;
  for (const double v : values) mon.on_window(gauge_window(idx++, v));
  // Bad streak is broken at window 2, re-achieves 3 at window 5; two good
  // windows (7, 8) recover it.
  EXPECT_EQ(mon.breaches(), 1u);
  EXPECT_EQ(mon.recovers(), 1u);
  EXPECT_TRUE(mon.healthy());
  ASSERT_EQ(mon.log().size(), 2u);
  EXPECT_TRUE(mon.log()[0].breach);
  EXPECT_EQ(mon.log()[0].window, 5u);
  EXPECT_FALSE(mon.log()[1].breach);
  EXPECT_EQ(mon.log()[1].window, 8u);
}

TEST(SloMonitor, MissingMetricCountsAsGoodWindow) {
  obs::SloMonitor mon(obs::parse_slo_spec("r gauge(x) > 10 sustain=2"));
  mon.on_window(gauge_window(0, 20));
  obs::WindowSample empty;  // no metric "x" anywhere
  empty.index = 1;
  empty.t_end_ns = 200 * kMs;
  mon.on_window(empty);  // breaks the bad streak
  mon.on_window(gauge_window(2, 20));
  EXPECT_EQ(mon.breaches(), 0u);
  mon.on_window(gauge_window(3, 20));
  EXPECT_EQ(mon.breaches(), 1u);
}

TEST(SloMonitor, EmitsBreachAndRecoverEventsAndVerdictJson) {
  obs::MemorySink sink;
  std::int64_t now = 0;
  obs::SloMonitor mon(obs::parse_slo_spec("r gauge(x) > 10"));
  mon.add_tracer(obs::Tracer(&sink, [&now] { return now; }));
  now = 100 * kMs;
  mon.on_window(gauge_window(0, 20));
  now = 200 * kMs;
  mon.on_window(gauge_window(1, 0));
  ASSERT_EQ(sink.lines().size(), 2u);
  EXPECT_NE(sink.lines()[0].find("\"e\":\"slo.breach\""), std::string::npos);
  EXPECT_NE(sink.lines()[0].find("\"rule\":\"r\""), std::string::npos);
  EXPECT_NE(sink.lines()[1].find("\"e\":\"slo.recover\""), std::string::npos);
  const std::string verdict = mon.verdict_json();
  EXPECT_NE(verdict.find("\"breaches\":1"), std::string::npos);
  EXPECT_NE(verdict.find("\"recovers\":1"), std::string::npos);
  EXPECT_NE(verdict.find("\"healthy\":true"), std::string::npos);
}

TEST(SloMonitor, VerdictJsonEscapesControlBytesInRuleNames) {
  // A rule name is outside input (--slo, SystemConfig::slo_rules), and the
  // verdict is spliced into metrics_json: a raw control byte there is not
  // JSON.
  obs::SloMonitor mon(obs::parse_slo_spec("bad\x01" "name total(x) > 0"));
  obs::WindowSample w;
  w.t_end_ns = 100 * kMs;
  w.counters.emplace_back("x", std::uint64_t{1});
  mon.on_window(w);
  ASSERT_EQ(mon.breaches(), 1u);
  const std::string verdict = mon.verdict_json();
  EXPECT_NE(verdict.find("\"rule\":\"bad\\u0001name\""), std::string::npos)
      << verdict;
  EXPECT_TRUE(std::none_of(verdict.begin(), verdict.end(), [](char c) {
    return static_cast<unsigned char>(c) < 0x20;
  })) << verdict;
}

TEST(SloMonitor, BurnRateDividesDeltaRatioByObjective) {
  obs::SloMonitor mon(
      obs::parse_slo_spec("b burn(bad/total, 0.1) > 1 sustain=1"));
  obs::WindowSample w;
  w.index = 0;
  w.t_end_ns = 100 * kMs;
  w.deltas.emplace_back("bad", std::uint64_t{5});
  w.deltas.emplace_back("total", std::uint64_t{25});
  mon.on_window(w);  // (5/25)/0.1 = 2 > 1 -> breach
  EXPECT_EQ(mon.breaches(), 1u);
  ASSERT_EQ(mon.log().size(), 1u);
  EXPECT_DOUBLE_EQ(mon.log()[0].value, 2.0);
}

// Property: over ANY window sequence, a rule's transitions exactly follow
// the sustain/clear streak semantics — in particular it NEVER breaches
// before `sustain` consecutive bad windows have elapsed.
struct HysteresisCase {
  std::size_t sustain = 1;
  std::size_t clear = 1;
  std::vector<bool> bad;  // window i exceeds the threshold
};

std::ostream& operator<<(std::ostream& os, const HysteresisCase& c) {
  os << "sustain=" << c.sustain << " clear=" << c.clear << " bad=";
  for (const bool b : c.bad) os << (b ? '1' : '0');
  return os;
}

TEST(SloMonitor, PropertyBreachNeverPrecedesSustainStreak) {
  using Case = HysteresisCase;
  prop::Gen<Case> gen;
  gen.generate = [](util::Rng& rng) {
    Case c;
    c.sustain = static_cast<std::size_t>(rng.uniform_int(1, 4));
    c.clear = static_cast<std::size_t>(rng.uniform_int(1, 3));
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 40));
    for (std::size_t i = 0; i < n; ++i) c.bad.push_back(rng.bernoulli(0.5));
    return c;
  };
  gen.shrink = [](const Case& c) {
    std::vector<Case> out;
    if (c.bad.size() > 1) {
      Case half = c;
      half.bad.resize(c.bad.size() / 2);
      out.push_back(half);
      Case tail = c;
      tail.bad.erase(tail.bad.begin());
      out.push_back(tail);
    }
    return out;
  };

  prop::forall<Case>(
      "slo breach hysteresis", gen,
      [](const Case& c) {
        obs::SloRule rule;
        rule.name = "r";
        rule.source = obs::SloSource::kGauge;
        rule.metric = "x";
        rule.cmp = obs::SloCmp::kGt;
        rule.threshold = 10.0;
        rule.sustain_windows = c.sustain;
        rule.clear_windows = c.clear;
        obs::SloMonitor mon({rule});

        // Reference streak machine, evolved window by window.
        bool breached = false;
        std::size_t bad_streak = 0;
        std::size_t good_streak = 0;
        std::uint64_t expect_breaches = 0;
        std::uint64_t expect_recovers = 0;
        for (std::size_t i = 0; i < c.bad.size(); ++i) {
          mon.on_window(gauge_window(i, c.bad[i] ? 20.0 : 0.0));
          if (c.bad[i]) {
            ++bad_streak;
            good_streak = 0;
            if (!breached && bad_streak >= c.sustain) {
              breached = true;
              ++expect_breaches;
            }
          } else {
            ++good_streak;
            bad_streak = 0;
            if (breached && good_streak >= c.clear) {
              breached = false;
              ++expect_recovers;
            }
          }
          if (mon.breaches() != expect_breaches) return false;
          if (mon.recovers() != expect_recovers) return false;
          if (mon.healthy() != !breached) return false;
        }
        // Every logged breach must sit at the end of a full sustain
        // streak — firing early would place it where the streak is short.
        for (const auto& e : mon.log()) {
          if (!e.breach) continue;
          if (e.window + 1 < c.sustain) return false;
          for (std::uint64_t k = 0; k < c.sustain; ++k) {
            if (!c.bad[static_cast<std::size_t>(e.window - k)]) return false;
          }
        }
        return true;
      },
      prop::Config{});
}

// --- gauge lifecycle between trials ----------------------------------------

TEST(GaugeLifecycle, SetInstrumentsResetsStaleGaugesFromPreviousTrial) {
  // A registry shared across trials (the bench pattern) carries the LAST
  // trial's gauge values; attaching instruments to a fresh pipeline must
  // overwrite them with the new pipeline's actual state, not leak them.
  obs::MetricsRegistry reg;
  obs::Gauge& depth = reg.gauge("bs.ingest.queue_depth.s0");
  obs::Gauge& breaker = reg.gauge("bs.ingest.breaker_state");
  depth.set(13.0);   // stale: previous trial ended with a deep queue
  breaker.set(2.0);  // stale: previous trial ended degraded

  revocation::RevocationConfig rc;
  revocation::BaseStationCluster cluster(rc, revocation::FailoverConfig{});
  revocation::IngestConfig ic;
  ic.admission.enabled = true;
  revocation::IngestPipeline pipeline(ic, cluster);
  revocation::IngestPipeline::Instruments ins;
  ins.queue_depth.push_back(&depth);
  ins.breaker_state = &breaker;
  pipeline.set_instruments(std::move(ins));

  EXPECT_DOUBLE_EQ(depth.value(), 0.0);    // fresh pipeline: empty queue
  EXPECT_DOUBLE_EQ(breaker.value(), 0.0);  // fresh pipeline: breaker closed
}

// --- scheduler time probe --------------------------------------------------

TEST(SchedulerTimeProbe, FiresOncePerClockAdvanceBeforeTheEdgeEvent) {
  sim::Scheduler sched;
  std::vector<std::pair<sim::SimTime, sim::SimTime>> probes;  // (t, now)
  sched.set_time_probe([&](sim::SimTime t) {
    probes.emplace_back(t, sched.now());
  });
  std::vector<sim::SimTime> executed;
  const auto record = [&] { executed.push_back(sched.now()); };
  sched.schedule_at(10, record);
  sched.schedule_at(10, record);  // same-time event: no second probe call
  sched.schedule_at(25, record);
  sched.run();
  ASSERT_EQ(probes.size(), 2u);
  // The probe sees the new time as its argument while now() still reads
  // the old time: it observes strictly pre-edge state.
  EXPECT_EQ(probes[0].first, 10);
  EXPECT_EQ(probes[0].second, 0);
  EXPECT_EQ(probes[1].first, 25);
  EXPECT_EQ(probes[1].second, 10);
  EXPECT_EQ(executed, (std::vector<sim::SimTime>{10, 10, 25}));
}

// --- the headline invariant ------------------------------------------------

core::SystemConfig telemetry_test_config() {
  core::SystemConfig c;
  c.deployment.total_nodes = 300;
  c.deployment.beacon_count = 30;
  c.deployment.malicious_beacon_count = 3;
  c.deployment.field = util::Rect::square(550.0);
  c.rtt_calibration_samples = 2000;
  c.seed = 11;
  return c;
}

TEST(Timeseries, SampledTrialIsBitForBitIdenticalToUnsampled) {
  core::TrialSummary plain;
  {
    core::SecureLocalizationSystem sys(telemetry_test_config());
    plain = sys.run();
  }
  core::TrialSummary sampled;
  obs::MemorySink sink;
  {
    core::SystemConfig c = telemetry_test_config();
    c.telemetry.enabled = true;
    c.telemetry.cadence_ns = 250 * kMs;
    c.telemetry.sink = &sink;
    c.slo_rules = obs::parse_slo_spec("r rate(channel.tx) >= 0");
    core::SecureLocalizationSystem sys(c);
    sampled = sys.run();
  }
  // The sampler observed a real stream...
  EXPECT_GT(sink.lines().size(), 1u);
  EXPECT_TRUE(sampled.slo.enabled);
  // ...and perturbed nothing: every simulation output matches exactly.
  // (metrics_json legitimately differs — telemetry registers its mirror
  // instruments and the SLO verdict — and slo is the new verdict itself.)
  EXPECT_EQ(sampled.sched_events, plain.sched_events);
  EXPECT_EQ(sampled.channel.transmissions, plain.channel.transmissions);
  EXPECT_EQ(sampled.channel.deliveries, plain.channel.deliveries);
  EXPECT_EQ(sampled.channel.dropped_by_fault, plain.channel.dropped_by_fault);
  EXPECT_EQ(sampled.malicious_revoked, plain.malicious_revoked);
  EXPECT_EQ(sampled.benign_revoked, plain.benign_revoked);
  EXPECT_EQ(sampled.sensors_localized, plain.sensors_localized);
  EXPECT_EQ(sampled.affected_sensor_references,
            plain.affected_sensor_references);
  EXPECT_EQ(sampled.detection_rate, plain.detection_rate);
  EXPECT_EQ(sampled.false_positive_rate, plain.false_positive_rate);
  EXPECT_EQ(sampled.mean_localization_error_ft,
            plain.mean_localization_error_ft);
  EXPECT_EQ(sampled.max_localization_error_ft,
            plain.max_localization_error_ft);
  EXPECT_EQ(sampled.mean_malicious_revocation_latency_ms,
            plain.mean_malicious_revocation_latency_ms);
  EXPECT_EQ(sampled.radio_energy_uj, plain.radio_energy_uj);
  EXPECT_EQ(sampled.rtt_x_max_cycles, plain.rtt_x_max_cycles);
  EXPECT_EQ(sampled.avg_requesters_per_malicious,
            plain.avg_requesters_per_malicious);
  EXPECT_EQ(sampled.avg_affected_per_malicious,
            plain.avg_affected_per_malicious);
}

/// SHA-256 (FIPS 180-4) of `text`, as lowercase hex.
std::string sha256_hex(const std::string& text) {
  static constexpr std::uint32_t kK[64] = {
      0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
      0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
      0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
      0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
      0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
      0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
      0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
      0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
      0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
      0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
      0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
  std::uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::string msg = text;
  const std::uint64_t bits = static_cast<std::uint64_t>(text.size()) * 8;
  msg += '\x80';
  while (msg.size() % 64 != 56) msg += '\0';
  for (int i = 7; i >= 0; --i)
    msg += static_cast<char>((bits >> (8 * i)) & 0xff);
  const auto rotr = [](std::uint32_t x, int n) {
    return (x >> n) | (x << (32 - n));
  };
  for (std::size_t block = 0; block < msg.size(); block += 64) {
    std::uint32_t w[64];
    for (std::size_t i = 0; i < 16; ++i) {
      w[i] = 0;
      for (std::size_t b = 0; b < 4; ++b)
        w[i] = (w[i] << 8) |
               static_cast<unsigned char>(msg[block + 4 * i + b]);
    }
    for (std::size_t i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t v[8];
    for (std::size_t i = 0; i < 8; ++i) v[i] = h[i];
    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(v[4], 6) ^ rotr(v[4], 11) ^ rotr(v[4], 25);
      const std::uint32_t ch = (v[4] & v[5]) ^ (~v[4] & v[6]);
      const std::uint32_t t1 = v[7] + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(v[0], 2) ^ rotr(v[0], 13) ^ rotr(v[0], 22);
      const std::uint32_t maj = (v[0] & v[1]) ^ (v[0] & v[2]) ^ (v[1] & v[2]);
      for (std::size_t j = 7; j > 0; --j) v[j] = v[j - 1];
      v[4] += t1;
      v[0] = t1 + s0 + maj;
    }
    for (std::size_t i = 0; i < 8; ++i) h[i] += v[i];
  }
  std::string hex;
  char buf[9];
  for (const std::uint32_t word : h) {
    std::snprintf(buf, sizeof buf, "%08x", word);
    hex += buf;
  }
  return hex;
}

TEST(Sha256, MatchesStandardVectors) {
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

/// Masks the values of the host-dependent instruments: the wall-clock
/// `phase.*` gauges and the allocator-dependent `mem.*` counters and
/// gauges. Keys, order and every other value stay byte-exact.
std::string mask_host_values(const std::string& json) {
  std::string out;
  out.reserve(json.size());
  std::size_t pos = 0;
  for (;;) {
    const std::size_t phase = json.find("\"phase.", pos);
    const std::size_t mem = json.find("\"mem.", pos);
    const std::size_t hit = std::min(phase, mem);
    if (hit == std::string::npos) break;
    const std::size_t colon = json.find("\":", hit + 1);
    if (colon == std::string::npos) break;
    out.append(json, pos, colon + 2 - pos);
    out += 'x';
    std::size_t end = colon + 2;
    while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
    pos = end;
  }
  out.append(json, pos, std::string::npos);
  return out;
}

TEST(Timeseries, InstrumentOutputMatchesPinnedDigests) {
  // Every in-system instrument at once: telemetry into a memory sink, one
  // SLO rule, memstats, ingest admission on two shards, the evidence
  // lifecycle, and durable failover through one primary outage, under a
  // colluder flood that keeps the ingest counters busy. The digests pin
  // metrics_json and the timeseries/v1 stream byte for byte (host values
  // masked), so a change to how counters are kept cannot move them.
  core::SystemConfig c = telemetry_test_config();
  obs::MemorySink sink;
  c.telemetry.enabled = true;
  c.telemetry.cadence_ns = 250 * kMs;
  c.telemetry.sink = &sink;
  c.slo_rules =
      obs::parse_slo_spec("flood rate(bs.ingest.rate_limited) > 5 sustain=2");
  c.memstats = true;
  c.collusion = true;
  c.storm.flood_alerts_per_colluder = 300;
  c.storm.duration_ns = 10 * sim::kSecond;
  c.ingest.admission.enabled = true;
  c.ingest.shard.count = 2;
  c.revocation.lifecycle.enabled = true;
  c.failover.durable.enabled = true;
  c.failover.standby_enabled = true;
  c.failover.primary_outages = {{3 * sim::kSecond, 6 * sim::kSecond}};
  core::SecureLocalizationSystem sys(c);
  const core::TrialSummary s = sys.run();

  // The run exercised what the digests are meant to cover.
  EXPECT_GT(s.ingest.rate_limited, 0u);
  EXPECT_GT(s.cluster.failovers + s.cluster.restarts, 0u);
  EXPECT_GT(s.slo.breaches, 0u);
  EXPECT_TRUE(s.memhot.enabled);

  std::string stream;
  for (const std::string& line : sink.lines()) {
    stream += mask_host_values(line);
    stream += '\n';
  }
  EXPECT_EQ(sha256_hex(mask_host_values(s.metrics_json)),
            "8124e8e3f912e2026c4c9bbcd56eaee576f41cc4429321345864a0ae833bc69b");
  EXPECT_EQ(sha256_hex(stream),
            "7f8fe214262ac9bd041f6a03526cdbbc7cd4815c0171180a444de63c871073f1");
}

TEST(TracePin, CollusionFloodUnderFaultsMatchesPinnedDigest) {
  // The colluders' flood interleaved with probes, queries and their ARQ
  // timers, under radio loss, a two-shard admission pipeline and a beacon
  // that crashes and reboots inside the probe phase. The digest pins the
  // JSONL trace byte for byte, so the order in which same-time events run
  // (flood alerts, probe and query timers, fault transitions) cannot move.
  core::SystemConfig c = telemetry_test_config();
  obs::MemorySink sink;
  c.trace_sink = &sink;
  c.collusion = true;
  c.storm.flood_alerts_per_colluder = 300;
  c.storm.duration_ns = 10 * sim::kSecond;
  c.ingest.admission.enabled = true;
  c.ingest.shard.count = 2;
  c.faults.loss_probability = 0.1;
  c.arq.enabled = true;
  const sim::NodeId crashed = sim::kFirstBeaconId + 3;
  c.faults.crashes.push_back(
      {crashed, 200 * sim::kMillisecond, 9 * sim::kSecond});
  core::SecureLocalizationSystem sys(c);
  const core::TrialSummary s = sys.run();

  // The run exercised what the digest is meant to cover.
  const sim::NodeSpec* spec = sys.deployment().find(crashed);
  ASSERT_NE(spec, nullptr);
  EXPECT_TRUE(spec->beacon && !spec->malicious);
  EXPECT_GT(sys.network().node(crashed)->timers_dropped(), 0u);
  EXPECT_GE(s.raw.collusion_alerts_submitted, 3u * 300u);
  EXPECT_GT(s.ingest.rate_limited, 0u);
  EXPECT_GT(s.channel.dropped_by_fault, 0u);
  EXPECT_GT(s.raw.probe_retransmissions, 0u);

  std::string trace;
  for (const std::string& line : sink.lines()) {
    trace += line;
    trace += '\n';
  }
  EXPECT_EQ(sha256_hex(trace),
            "aea334877001199096c900409704aa5f96dc5075a1f25fdf0926216f4bd3c131");
}

TEST(Timeseries, TrialEndingOnAWindowEdgeSnapshotsItsFinalCounts) {
  // Finalize times are multiples of 5 ms, so with a 5 ms cadence the last
  // window closes before the trial's last instant runs and no partial
  // window follows. The end-of-trial snapshot still reads every count's
  // home, so it carries the final values.
  core::SystemConfig c = telemetry_test_config();
  c.telemetry.enabled = true;
  c.telemetry.cadence_ns = 5 * kMs;
  core::SecureLocalizationSystem sys(c);
  const core::TrialSummary s = sys.run();
  ASSERT_EQ(sys.network().scheduler().now() % c.telemetry.cadence_ns, 0);
  const auto reads = [&s](const std::string& key, std::uint64_t value) {
    const std::string entry = "\"" + key + "\":" + std::to_string(value);
    const std::size_t at = s.metrics_json.find(entry);
    return at != std::string::npos &&
           std::string(",}").find(s.metrics_json[at + entry.size()]) !=
               std::string::npos;
  };
  EXPECT_TRUE(reads("sched.executed", s.sched_events));
  EXPECT_TRUE(reads("sched.pending", 0));
  EXPECT_TRUE(reads("channel.tx", s.channel.transmissions));
}

TEST(Timeseries, TrialVerdictLandsInMetricsJsonAndSummary) {
  core::SystemConfig c = telemetry_test_config();
  c.telemetry.enabled = true;
  c.telemetry.cadence_ns = 250 * kMs;
  // A rule that trivially breaches on the first window and never recovers:
  // the verdict must report the trial unhealthy.
  c.slo_rules = obs::parse_slo_spec("always rate(channel.tx) >= 0");
  core::SecureLocalizationSystem sys(c);
  const auto s = sys.run();
  EXPECT_TRUE(s.slo.enabled);
  EXPECT_FALSE(s.slo.healthy);
  EXPECT_EQ(s.slo.breaches, 1u);
  EXPECT_NE(s.metrics_json.find("\"slo\":{"), std::string::npos);
  EXPECT_NE(s.metrics_json.find("\"rule\":\"always\""), std::string::npos);
}

}  // namespace
}  // namespace sld
