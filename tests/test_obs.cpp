// Observability subsystem: metrics semantics, JSONL record shape, and the
// load-bearing guarantee that tracing never changes simulation results.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <regex>
#include <stdexcept>
#include <string>

#include "core/secure_localization.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace sld {
namespace {

// --- metrics -------------------------------------------------------------

TEST(Metrics, CounterAndGauge) {
  obs::MetricsRegistry reg;
  auto& c = reg.counter("hits");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  auto& g = reg.gauge("depth");
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_EQ(g.value(), 2.5);
  // Re-registration returns the same instrument.
  reg.counter("hits").inc();
  EXPECT_EQ(reg.counter("hits").value(), 6u);
}

TEST(Metrics, ReadThroughEntriesReportTheirSource) {
  // A read-through counter or gauge reads its home whenever the registry
  // is read: in snapshot_json() and in every window a sampler closes.
  std::uint64_t home = 4;
  double depth = 1.5;
  obs::MetricsRegistry reg;
  reg.counter("plain").inc(2);
  reg.counter("home.count", [&home] { return home; });
  reg.gauge("home.depth", [&depth] { return depth; });
  EXPECT_NE(reg.snapshot_json().find(
                "\"counters\":{\"plain\":2,\"home.count\":4}"),
            std::string::npos);
  EXPECT_NE(reg.snapshot_json().find("\"gauges\":{\"home.depth\":1.5}"),
            std::string::npos);

  obs::TimeseriesOptions o;
  o.enabled = true;
  o.cadence_ns = 100;
  obs::TimeseriesSampler ts(reg, o);
  ts.begin(0, 1);
  home = 10;
  depth = 3.0;
  ts.advance_to(100);
  home = 11;
  ts.advance_to(200);
  ASSERT_EQ(ts.ring().size(), 2u);
  EXPECT_EQ(*ts.ring()[0].counter("home.count"), 10u);
  EXPECT_EQ(*ts.ring()[0].delta("home.count"), 6u);  // from the begin read
  EXPECT_DOUBLE_EQ(*ts.ring()[0].gauge("home.depth"), 3.0);
  EXPECT_EQ(*ts.ring()[1].counter("home.count"), 11u);
  EXPECT_EQ(*ts.ring()[1].delta("home.count"), 1u);
  EXPECT_NE(reg.snapshot_json().find("\"home.count\":11"), std::string::npos);
}

TEST(Metrics, ReadThroughCounterNeverReportsLessThanItLastReported) {
  // A base station restored from its durable prefix can report fewer
  // alerts than before its crash; the counter must not go backwards, in
  // the snapshot or in a window's cumulative value and delta.
  std::uint64_t home = 7;
  obs::MetricsRegistry reg;
  const obs::Counter& c = reg.counter("home", [&home] { return home; });
  obs::TimeseriesOptions o;
  o.enabled = true;
  o.cadence_ns = 100;
  obs::TimeseriesSampler ts(reg, o);
  ts.begin(0, 1);
  EXPECT_EQ(c.value(), 7u);
  home = 3;  // the home drops
  EXPECT_EQ(c.value(), 7u);
  EXPECT_NE(reg.snapshot_json().find("\"home\":7"), std::string::npos);
  ts.advance_to(100);
  EXPECT_EQ(*ts.ring()[0].counter("home"), 7u);
  EXPECT_EQ(*ts.ring()[0].delta("home"), 0u);
  home = 9;  // and climbs past its old high
  ts.advance_to(200);
  EXPECT_EQ(*ts.ring()[1].counter("home"), 9u);
  EXPECT_EQ(*ts.ring()[1].delta("home"), 2u);
  EXPECT_EQ(c.value(), 9u);
}

TEST(Metrics, ReadThroughEntryHasOneHome) {
  obs::MetricsRegistry reg;
  reg.counter("taken");
  reg.gauge("taken");
  EXPECT_THROW(reg.counter("taken", [] { return std::uint64_t{1}; }),
               std::logic_error);
  EXPECT_THROW(reg.gauge("taken", [] { return 1.0; }), std::logic_error);
  reg.counter("fresh", [] { return std::uint64_t{1}; });
  EXPECT_THROW(reg.counter("fresh", [] { return std::uint64_t{2}; }),
               std::logic_error);
  EXPECT_EQ(reg.counter("fresh").value(), 1u);  // plain lookup still works
}

TEST(Metrics, HistogramBasics) {
  obs::Histogram h(0.0, 100.0, 10);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0.0);  // empty: defined as 0
  h.observe(5.0);
  h.observe(15.0);
  h.observe(95.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), 5.0);
  EXPECT_DOUBLE_EQ(h.max(), 95.0);
  EXPECT_DOUBLE_EQ(h.mean(), (5.0 + 15.0 + 95.0) / 3.0);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[9], 1u);
}

TEST(Metrics, HistogramClampsOutOfRange) {
  obs::Histogram h(0.0, 10.0, 5);
  h.observe(-100.0);
  h.observe(1e9);
  EXPECT_EQ(h.buckets().front(), 1u);
  EXPECT_EQ(h.buckets().back(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), -100.0);  // extrema stay exact
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
}

TEST(Metrics, PercentilesOnUniformFill) {
  // 1..100 into [0,100] x 100 buckets: percentile(p) ~ 100 p.
  obs::Histogram h(0.0, 100.0, 100);
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_NEAR(h.p50(), 50.0, 1.5);
  EXPECT_NEAR(h.p90(), 90.0, 1.5);
  EXPECT_NEAR(h.p99(), 99.0, 1.5);
  EXPECT_LE(h.p99(), h.max());
  EXPECT_GE(h.p50(), h.min());
}

TEST(Metrics, PercentileOrderingIsMonotone) {
  obs::Histogram h(0.0, 1000.0, 20);
  for (int i = 0; i < 500; ++i) h.observe(static_cast<double>(i % 97) * 7.0);
  EXPECT_LE(h.p50(), h.p90());
  EXPECT_LE(h.p90(), h.p99());
}

// --- log-bucket (exponential) histograms ---------------------------------

TEST(Metrics, LogHistogramBucketEdgesAreGeometric) {
  // [1, 1024] over 10 buckets: edges 1, 2, 4, ..., 1024.
  obs::Histogram h(1.0, 1024.0, 10, obs::HistogramScale::kLog);
  EXPECT_EQ(h.scale(), obs::HistogramScale::kLog);
  for (std::size_t i = 0; i <= 10; ++i)
    EXPECT_NEAR(h.edge(i), std::pow(2.0, static_cast<double>(i)),
                1e-9 * std::pow(2.0, static_cast<double>(i)));
  // A sample just above an edge lands in the bucket above it.
  h.observe(1.5);    // bucket 0: [1, 2)
  h.observe(3.0);    // bucket 1: [2, 4)
  h.observe(700.0);  // bucket 9: [512, 1024]
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[9], 1u);
}

TEST(Metrics, LogHistogramClampsAndAcceptsNonPositive) {
  obs::Histogram h(1.0, 100.0, 4, obs::HistogramScale::kLog);
  h.observe(0.0);    // non-positive: clamps to the first bucket
  h.observe(-5.0);
  h.observe(1e12);   // above hi: clamps to the last bucket
  EXPECT_EQ(h.buckets().front(), 2u);
  EXPECT_EQ(h.buckets().back(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);  // extrema stay exact
  EXPECT_DOUBLE_EQ(h.max(), 1e12);
}

TEST(Metrics, LogHistogramPercentileInterpolatesGeometrically) {
  // All mass in one bucket [10, 100) of [1, 1000): the percentile seam
  // must interpolate along the geometric edge curve, inside the bucket.
  obs::Histogram h(1.0, 1000.0, 3, obs::HistogramScale::kLog);
  for (int i = 0; i < 100; ++i) h.observe(30.0);
  EXPECT_GE(h.p50(), 10.0);
  EXPECT_LE(h.p50(), 100.0);
  // Percentiles never escape the observed extrema.
  EXPECT_GE(h.p50(), h.min());
  EXPECT_LE(h.p99(), h.max());
}

TEST(Metrics, LogHistogramPercentilesMonotoneOnSkewedFill) {
  // Latency-shaped fill spanning four decades — the log histogram's home
  // turf, where a linear histogram would dump everything into bucket 0.
  obs::Histogram h(0.001, 10.0, 40, obs::HistogramScale::kLog);
  for (int i = 1; i <= 1000; ++i) h.observe(0.001 * static_cast<double>(i));
  EXPECT_LE(h.p50(), h.p90());
  EXPECT_LE(h.p90(), h.p99());
  EXPECT_NEAR(h.p50(), 0.5, 0.1);
  EXPECT_NEAR(h.p90(), 0.9, 0.1);
}

TEST(Metrics, LogHistogramSnapshotJsonCarriesScale) {
  obs::MetricsRegistry reg;
  reg.histogram("lat", 0.1, 100.0, 8, obs::HistogramScale::kLog)
      .observe(5.0);
  reg.histogram("lin", 0.0, 10.0, 2).observe(5.0);
  const std::string json = reg.snapshot_json();
  EXPECT_NE(json.find("\"lat\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"scale\":\"log\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"scale\":\"linear\""), std::string::npos) << json;
}

TEST(Metrics, LogHistogramRejectsNonPositiveLowerBound) {
  EXPECT_THROW(obs::Histogram(0.0, 10.0, 4, obs::HistogramScale::kLog),
               std::invalid_argument);
  EXPECT_THROW(obs::Histogram(-1.0, 10.0, 4, obs::HistogramScale::kLog),
               std::invalid_argument);
}

TEST(Metrics, SnapshotJsonShape) {
  obs::MetricsRegistry reg;
  reg.counter("a").inc(3);
  reg.gauge("b").set(1.5);
  reg.histogram("c", 0.0, 10.0, 2).observe(7.0);
  const std::string json = reg.snapshot_json();
  EXPECT_NE(json.find("\"counters\":{\"a\":3}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\":{\"b\":1.5}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"c\":{\"count\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"buckets\":[0,1]"), std::string::npos) << json;
}

TEST(Metrics, ScopedTimerWritesGauge) {
  obs::MetricsRegistry reg;
  {
    obs::ScopedTimerMs timer(reg, "elapsed_ms");
  }
  EXPECT_GE(reg.gauge("elapsed_ms").value(), 0.0);
}

// --- trace records -------------------------------------------------------

TEST(Trace, EventBuildsJsonObject) {
  obs::Event e("pkt.send", 1234);
  e.f("node", std::uint32_t{7})
      .f("ok", true)
      .f("x", 1.5)
      .f("name", "alpha");
  EXPECT_EQ(e.finish(),
            "{\"t\":1234,\"e\":\"pkt.send\",\"node\":7,\"ok\":true,"
            "\"x\":1.5,\"name\":\"alpha\"}");
}

TEST(Trace, EventEscapesStringsAndNonFinite) {
  obs::Event e("x", 0);
  e.f("s", "a\"b\\c\nd").f("inf", std::numeric_limits<double>::infinity());
  EXPECT_EQ(e.finish(),
            "{\"t\":0,\"e\":\"x\",\"s\":\"a\\\"b\\\\c\\nd\",\"inf\":null}");
}

TEST(Trace, DefaultTracerIsOffAndEmitsNothing) {
  obs::Tracer tracer;
  EXPECT_FALSE(tracer.on());
  // emit on an off tracer is a no-op (and must not crash).
  tracer.emit(tracer.event("x").f("k", 1));
  obs::NullSink null_sink;
  obs::Tracer with_null(&null_sink, [] { return std::int64_t{0}; });
  EXPECT_FALSE(with_null.on());
}

TEST(Trace, MemorySinkCollectsStampedRecords) {
  obs::MemorySink sink;
  std::int64_t now = 42;
  obs::Tracer tracer(&sink, [&now] { return now; });
  ASSERT_TRUE(tracer.on());
  tracer.emit(tracer.event("a").f("v", 1));
  now = 99;
  tracer.emit(tracer.event("b"));
  ASSERT_EQ(sink.lines().size(), 2u);
  EXPECT_EQ(sink.lines()[0], "{\"t\":42,\"e\":\"a\",\"v\":1}");
  EXPECT_EQ(sink.lines()[1], "{\"t\":99,\"e\":\"b\"}");
}

// --- whole-trial behaviour ----------------------------------------------

core::SystemConfig tiny_config() {
  core::SystemConfig config;
  config.deployment.total_nodes = 60;
  config.deployment.beacon_count = 12;
  config.deployment.malicious_beacon_count = 3;
  config.deployment.field = util::Rect::square(300.0);
  config.rtt_calibration_samples = 500;
  config.strategy = attack::MaliciousStrategyConfig::with_effectiveness(0.9);
  config.seed = 11;
  return config;
}

TEST(TraceTrial, RecordsAreSchemaShapedAndDeterministic) {
  obs::MemorySink sink;
  auto config = tiny_config();
  config.trace_sink = &sink;
  core::SecureLocalizationSystem system(config);
  system.run();
  ASSERT_FALSE(sink.lines().empty());

  // Every record matches {"t":<int>,"e":"<type>"...} and time is monotone.
  const std::regex shape("^\\{\"t\":\\d+,\"e\":\"[a-z_.]+\".*\\}$");
  std::int64_t last_t = 0;
  for (const auto& line : sink.lines()) {
    EXPECT_TRUE(std::regex_match(line, shape)) << line;
    const std::int64_t t = std::stoll(line.substr(5));
    EXPECT_GE(t, last_t) << line;
    last_t = t;
  }
  EXPECT_NE(sink.lines().front().find("trial.start"), std::string::npos);
  EXPECT_NE(sink.lines().back().find("\"e\":\"trial.end\""),
            std::string::npos);

  // Same config + seed => byte-identical trace.
  obs::MemorySink sink2;
  auto config2 = tiny_config();
  config2.trace_sink = &sink2;
  core::SecureLocalizationSystem system2(config2);
  system2.run();
  ASSERT_EQ(sink.lines().size(), sink2.lines().size());
  for (std::size_t i = 0; i < sink.lines().size(); ++i)
    ASSERT_EQ(sink.lines()[i], sink2.lines()[i]) << "record " << i;
}

TEST(TraceTrial, TracedRunMatchesUntracedRunBitForBit) {
  auto untraced_config = tiny_config();
  core::SecureLocalizationSystem untraced(untraced_config);
  const auto a = untraced.run();

  obs::MemorySink sink;
  auto traced_config = tiny_config();
  traced_config.trace_sink = &sink;
  core::SecureLocalizationSystem traced(traced_config);
  const auto b = traced.run();
  EXPECT_FALSE(sink.lines().empty());

  // Every simulation output is identical; metrics_json is excluded since
  // its wall-clock phase gauges legitimately differ between runs.
  EXPECT_EQ(a.malicious_revoked, b.malicious_revoked);
  EXPECT_EQ(a.benign_revoked, b.benign_revoked);
  EXPECT_EQ(a.detection_rate, b.detection_rate);
  EXPECT_EQ(a.false_positive_rate, b.false_positive_rate);
  EXPECT_EQ(a.sensors_localized, b.sensors_localized);
  EXPECT_EQ(a.sensors_unlocalized, b.sensors_unlocalized);
  EXPECT_EQ(a.mean_localization_error_ft, b.mean_localization_error_ft);
  EXPECT_EQ(a.max_localization_error_ft, b.max_localization_error_ft);
  EXPECT_EQ(a.avg_affected_per_malicious, b.avg_affected_per_malicious);
  EXPECT_EQ(a.radio_energy_uj, b.radio_energy_uj);
  EXPECT_EQ(a.rtt_x_max_cycles, b.rtt_x_max_cycles);
  EXPECT_EQ(a.raw.probes_sent, b.raw.probes_sent);
  EXPECT_EQ(a.raw.probe_replies, b.raw.probe_replies);
  EXPECT_EQ(a.raw.consistency_flags, b.raw.consistency_flags);
  EXPECT_EQ(a.raw.alerts_submitted, b.raw.alerts_submitted);
  EXPECT_EQ(a.base_station.alerts_received, b.base_station.alerts_received);
  EXPECT_EQ(a.base_station.revocations, b.base_station.revocations);
  EXPECT_EQ(a.channel.transmissions, b.channel.transmissions);
  EXPECT_EQ(a.channel.deliveries, b.channel.deliveries);
}

TEST(TraceTrial, MetricsSnapshotCarriesHistogramsAndPhases) {
  auto config = tiny_config();
  core::SecureLocalizationSystem system(config);
  const auto s = system.run();
  for (const char* needle :
       {"\"rtt.probe_cycles\"", "\"rtt.query_cycles\"",
        "\"ranging.residual_ft\"", "\"bs.alert_counter\"",
        "\"radio.node_energy_uj\"", "\"p50\"", "\"p90\"", "\"p99\"",
        "\"phase.calibration_ms\"", "\"phase.deployment_ms\"",
        "\"phase.provisioning_ms\"", "\"phase.probing_ms\"",
        "\"phase.localization_ms\"", "\"sched.events\"",
        "\"sched.max_queue_depth\""}) {
    EXPECT_NE(s.metrics_json.find(needle), std::string::npos)
        << "missing " << needle << " in " << s.metrics_json;
  }
}

TEST(TraceTrial, CausalChainReachesRevocation) {
  // With effectiveness 0.9 and seed 11 at this scale at least one
  // malicious beacon is revoked; its full causal chain must be present.
  obs::MemorySink sink;
  auto config = tiny_config();
  config.trace_sink = &sink;
  core::SecureLocalizationSystem system(config);
  const auto s = system.run();
  ASSERT_GE(s.malicious_revoked, 1u);

  bool saw_inconsistency = false, saw_alert_verdict = false;
  bool saw_submit = false, saw_bs_accept = false, saw_revoke = false;
  for (const auto& line : sink.lines()) {
    if (line.find("\"e\":\"detect.consistency\"") != std::string::npos &&
        line.find("\"malicious\":true") != std::string::npos)
      saw_inconsistency = true;
    if (line.find("\"e\":\"detect.verdict\"") != std::string::npos &&
        line.find("\"outcome\":\"alert\"") != std::string::npos)
      saw_alert_verdict = true;
    if (line.find("\"e\":\"alert.submit\"") != std::string::npos)
      saw_submit = true;
    if (line.find("\"e\":\"bs.alert\"") != std::string::npos &&
        line.find("\"disposition\":\"accepted") != std::string::npos)
      saw_bs_accept = true;
    if (line.find("\"e\":\"bs.revoke\"") != std::string::npos)
      saw_revoke = true;
  }
  EXPECT_TRUE(saw_inconsistency);
  EXPECT_TRUE(saw_alert_verdict);
  EXPECT_TRUE(saw_submit);
  EXPECT_TRUE(saw_bs_accept);
  EXPECT_TRUE(saw_revoke);
}

}  // namespace
}  // namespace sld
