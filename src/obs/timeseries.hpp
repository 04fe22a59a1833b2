// Streaming time-series telemetry (the observability subsystem's temporal
// half; obs/metrics.hpp holds end-of-trial aggregates, obs/trace.hpp the
// per-event stream — this layer sits between them).
//
// A TimeseriesSampler watches a MetricsRegistry and, at a fixed sim-time
// cadence, closes *windows*: [t0 + k*cadence, t0 + (k+1)*cadence). At each
// close it snapshots every registered counter (cumulative value plus the
// per-window delta — the derived rate numerator), gauge, and histogram
// quantile set into a WindowSample, keeps the last `ring_capacity` samples
// in a bounded ring (eviction-accounted, the chaos campaign's forensic
// tail), and optionally emits one schema-versioned `timeseries/v1` JSONL
// record per window to a TraceSink, alongside a `ts.meta` header per trial.
//
// The sampler is driven by observation, never by scheduling: the caller
// (typically a Scheduler time probe) calls advance_to(t) whenever the sim
// clock moves, and the sampler closes every window whose end has passed.
// It draws no randomness, schedules no events, and allocates nothing when
// no window closes — a run with a sampler attached is bit-for-bit
// identical to one without (the same discipline as tracing/profiling).
//
// Time is plain int64 nanoseconds, not sim::SimTime: obs builds below sim.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sld::obs {

/// Telemetry knobs carried by SystemConfig. Disabled (the default) means
/// no sampler is constructed at all.
struct TimeseriesOptions {
  bool enabled = false;
  /// Window length, sim nanoseconds.
  std::int64_t cadence_ns = 250'000'000;
  /// Retained windows; older ones are evicted (and counted).
  std::size_t ring_capacity = 64;
  /// `timeseries/v1` JSONL destination (non-owning; must outlive every
  /// trial using it). nullptr keeps the ring without emitting a stream.
  TraceSink* sink = nullptr;
  /// Sample peak process RSS into a `mem.rss_kb` gauge at every window
  /// close. Off by default: RSS is host state, not simulation state, so
  /// sampling it makes the stream nondeterministic across machines (window
  /// *timing* stays deterministic either way).
  bool sample_rss = false;
};

/// One closed telemetry window. Instruments appear in registration order;
/// counters carry both the cumulative value at window close and the
/// per-window delta (rates are delta / window length).
struct WindowSample {
  std::uint64_t index = 0;
  std::int64_t t_start_ns = 0;
  std::int64_t t_end_ns = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;  // cumulative
  std::vector<std::pair<std::string, std::uint64_t>> deltas;    // this window
  std::vector<std::pair<std::string, double>> gauges;
  struct HistQ {
    std::string name;
    std::uint64_t count = 0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
  };
  std::vector<HistQ> hists;

  std::int64_t duration_ns() const { return t_end_ns - t_start_ns; }

  // Lookups by name (nullptr when the metric does not exist yet — a
  // registry can grow mid-trial and early windows predate late metrics).
  const std::uint64_t* counter(std::string_view name) const;
  const std::uint64_t* delta(std::string_view name) const;
  const double* gauge(std::string_view name) const;
  const HistQ* hist(std::string_view name) const;
  /// Per-second rate of a counter over this window (0 if absent).
  double rate_per_s(std::string_view name) const;
};

class TimeseriesSampler {
 public:
  /// `registry` and `sink` (optional) must outlive the sampler.
  TimeseriesSampler(const MetricsRegistry& registry,
                    const TimeseriesOptions& options);

  std::int64_t cadence_ns() const { return cadence_ns_; }

  /// Invoked with the window end time immediately before each snapshot —
  /// the system's chance to set gauges whose value depends on that time
  /// (breaker state, coverage floor). Must not mutate simulation state.
  void set_presample_hook(std::function<void(std::int64_t)> hook) {
    presample_ = std::move(hook);
  }

  /// Invoked with every closed window, after it entered the ring and the
  /// stream — the SLO monitor's feed.
  void set_window_observer(std::function<void(const WindowSample&)> observer) {
    observer_ = std::move(observer);
  }

  /// Starts the window grid at t0 and emits the `ts.meta` stream header.
  void begin(std::int64_t t0, std::uint64_t seed);

  /// Closes every window whose end is <= t (events happening exactly at a
  /// window's end belong to the next window: the caller advances the clock
  /// before executing them, so window contents are pre-t state).
  void advance_to(std::int64_t t);

  /// End of trial: closes complete windows through t, then one final
  /// partial window [last_end, t) if time stopped mid-window.
  void finish(std::int64_t t);

  bool begun() const { return begun_; }
  const std::deque<WindowSample>& ring() const { return ring_; }
  std::uint64_t windows_closed() const { return windows_closed_; }
  std::uint64_t evicted() const { return evicted_; }

  /// Human-readable dump of the last `n` ring windows (non-zero deltas and
  /// gauges only) — the chaos campaign's failure context.
  std::string render_tail(std::size_t n) const;

 private:
  void close_window(std::int64_t start, std::int64_t end);
  void emit_window(const WindowSample& w);

  const MetricsRegistry& registry_;
  TraceSink* sink_;
  std::int64_t cadence_ns_;
  std::size_t ring_capacity_;
  std::function<void(std::int64_t)> presample_;
  std::function<void(const WindowSample&)> observer_;
  bool begun_ = false;
  std::int64_t next_end_ = 0;
  std::uint64_t windows_closed_ = 0;
  std::uint64_t evicted_ = 0;
  std::deque<WindowSample> ring_;
  /// Counter values at the previous window close, by registration index
  /// (the registry is append-only, so indices are stable; counters
  /// registered mid-trial delta against an implicit previous value of 0).
  std::vector<std::uint64_t> prev_counters_;
};

}  // namespace sld::obs
