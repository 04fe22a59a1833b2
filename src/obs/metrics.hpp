// Metrics registry (the observability subsystem's aggregate half; see
// obs/trace.hpp for the per-event half).
//
// Named counters, gauges, and fixed-bucket histograms, registered once and
// cheap to update on hot paths: call sites keep the returned reference and
// pay one add (or one bucket index) per update — no lookup, no allocation,
// no branching on configuration. Everything is deterministic: updates
// driven by the (deterministic) simulation produce identical snapshots for
// identical seeds; the only nondeterministic values are the wall-clock
// phase timers, which exist precisely to measure the host.
//
// `MetricsRegistry::snapshot_json()` renders one machine-readable JSON
// document (registration order, stable field order) that the trial runner
// attaches to `TrialSummary::metrics_json` and benches dump via --metrics.
//
// Every count has one home. A count a subsystem keeps in its own stats
// struct (ChannelStats, BaseStationStats, IngestStats, ...) is registered
// as a read-through entry that reads that struct whenever the registry is
// read: by `snapshot_json()` or by a TimeseriesSampler closing a window.
// Both run on the trial's thread while every source is alive, because
// every registry is per trial or per run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace sld::obs {

/// Monotone event count: counted here (`inc`) or read through from its
/// home. A read-through counter never reports less than it last reported,
/// even when its home drops (a restored base station rebuilds its stats
/// from the durable prefix).
class Counter {
 public:
  using Read = std::function<std::uint64_t()>;
  Counter() = default;
  explicit Counter(Read read) : read_(std::move(read)) {}
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const {
    if (read_) value_ = std::max(value_, read_());
    return value_;
  }

 private:
  Read read_;
  mutable std::uint64_t value_ = 0;
};

/// Last-written value (queue depths, phase timings, calibration
/// constants), or a read-through of a live value of its home.
class Gauge {
 public:
  using Read = std::function<double()>;
  Gauge() = default;
  explicit Gauge(Read read) : read_(std::move(read)) {}
  void set(double v) { value_ = v; }
  double value() const { return read_ ? read_() : value_; }

 private:
  Read read_;
  double value_ = 0.0;
};

/// Bucket-edge layout of a Histogram. Linear splits [lo, hi) into equal
/// widths; log (exponential) uses geometrically growing buckets, which
/// keeps relative resolution constant across value decades — the right
/// shape for RTT and residual latencies. Log requires lo > 0.
enum class HistogramScale { kLinear, kLog };

/// Fixed-bucket histogram over [lo, hi), linear or log-bucketed (see
/// HistogramScale). Samples outside the range are clamped into the
/// first/last bucket (the exact min/max are tracked separately, so the
/// tails stay honest). Percentiles are extracted by interpolation inside
/// the bucket that crosses the target rank — linear interpolation for
/// linear buckets, geometric for log buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bucket_count,
            HistogramScale scale = HistogramScale::kLinear);

  void observe(double x);

  std::uint64_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  HistogramScale scale() const { return scale_; }

  /// Bucket edges: bucket i covers [edge(i), edge(i+1)).
  double edge(std::size_t i) const;

  /// Quantile for p in [0, 1]; 0 when empty. p50/p90/p99 are the shorthands
  /// the snapshot emits.
  double percentile(double p) const;
  double p50() const { return percentile(0.50); }
  double p90() const { return percentile(0.90); }
  double p99() const { return percentile(0.99); }

  const std::vector<std::uint64_t>& buckets() const { return counts_; }

 private:
  double lo_;
  double hi_;
  double width_;        // linear: bucket width; log: log(hi/lo)/buckets
  HistogramScale scale_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Owns every metric of one trial. Lookups are by name; re-registering an
/// existing name returns the existing instrument (histogram shape params
/// are ignored on re-registration), so independent layers can share a
/// metric without coordination. Registering a read-through entry under a
/// taken name throws std::logic_error: a count has one home.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Counter& counter(const std::string& name, Counter::Read read);
  Gauge& gauge(const std::string& name);
  Gauge& gauge(const std::string& name, Gauge::Read read);
  Histogram& histogram(const std::string& name, double lo, double hi,
                       std::size_t bucket_count,
                       HistogramScale scale = HistogramScale::kLinear);

  /// One JSON document:
  ///   {"counters":{...},"gauges":{...},"histograms":{"name":
  ///     {"count":..,"mean":..,"min":..,"max":..,"p50":..,"p90":..,
  ///      "p99":..,"lo":..,"hi":..,"buckets":[..]}, ...}}
  /// Instruments appear in registration order.
  std::string snapshot_json() const;

  // Read-only enumeration in registration order (append-only, so indices
  // handed out here are stable for the registry's lifetime) — the
  // time-series sampler's snapshot walk.
  std::size_t counter_count() const { return counters_.size(); }
  std::size_t gauge_count() const { return gauges_.size(); }
  std::size_t histogram_count() const { return histograms_.size(); }
  template <typename Fn>  // Fn(const std::string& name, const Counter&)
  void for_each_counter(Fn&& fn) const {
    for (const auto& c : counters_) fn(c.name, *c.instrument);
  }
  template <typename Fn>  // Fn(const std::string& name, const Gauge&)
  void for_each_gauge(Fn&& fn) const {
    for (const auto& g : gauges_) fn(g.name, *g.instrument);
  }
  template <typename Fn>  // Fn(const std::string& name, const Histogram&)
  void for_each_histogram(Fn&& fn) const {
    for (const auto& h : histograms_) fn(h.name, *h.instrument);
  }

 private:
  template <typename T>
  struct Named {
    std::string name;
    std::unique_ptr<T> instrument;
  };
  std::vector<Named<Counter>> counters_;
  std::vector<Named<Gauge>> gauges_;
  std::vector<Named<Histogram>> histograms_;
  std::unordered_map<std::string, std::size_t> counter_index_;
  std::unordered_map<std::string, std::size_t> gauge_index_;
  std::unordered_map<std::string, std::size_t> histogram_index_;
};

/// Profiling hook: stores the elapsed wall-clock milliseconds into the
/// named gauge on destruction. Wrap each trial phase in one of these.
class ScopedTimerMs {
 public:
  ScopedTimerMs(MetricsRegistry& registry, const std::string& gauge_name)
      : gauge_(registry.gauge(gauge_name)),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimerMs() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    gauge_.set(std::chrono::duration<double, std::milli>(elapsed).count());
  }
  ScopedTimerMs(const ScopedTimerMs&) = delete;
  ScopedTimerMs& operator=(const ScopedTimerMs&) = delete;

 private:
  Gauge& gauge_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace sld::obs
