// Unified bench-result protocol (see DESIGN.md "Performance
// observability").
//
// Every figure/extension/ablation bench hands its whole workload to
// `run_main`, which runs the standard measurement loop — `--warmup N`
// unmeasured repetitions, then `--repeats N` measured ones — and, when
// `--json FILE` is given, emits one schema-versioned machine-readable
// result ("sld-bench-result/v1"): per-repeat wall times with median + MAD,
// simulated-events/sec and packets/sec throughput, peak RSS, and
// host/compiler/git metadata. tools/bench_compare.py consumes these files
// to gate perf regressions.
//
// The workload writes its human-readable tables to `it.out()`, which is
// real stdout only on the reporting (last measured) repetition — so with
// the default flags (one repeat, no warmup) bench stdout is byte-for-byte
// what it was before the protocol existed, and the golden-summary check
// keeps passing. Workloads must be deterministic functions of BenchArgs:
// every repetition re-runs identical work.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "core/secure_localization.hpp"
#include "obs/memstats.hpp"
#include "obs/trace.hpp"

namespace sld::bench {

/// Per-repetition context handed to the bench workload.
class BenchIteration {
 public:
  BenchIteration(std::ostream& out, bool report)
      : out_(&out), report_(report) {}

  /// Destination of the bench's human-readable output. Real stdout on the
  /// reporting repetition, a swallow-everything stream otherwise.
  std::ostream& out() const { return *out_; }

  /// True exactly once per bench invocation (the last measured repeat);
  /// guard side effects like --metrics files with this.
  bool report() const { return report_; }

  /// The JSONL sink a file flag such as --trace names, or nullptr when
  /// `path` is empty; exits 2 when the file cannot be opened. Only the
  /// reporting repetition writes the file. Warm-ups and the other repeats
  /// format every record into out()'s discarding stream, so every repeat
  /// of a --repeats median does the same work. Wire the raw pointer into
  /// SystemConfig::trace_sink (or a Tracer); the unique_ptr must outlive
  /// every trial that uses it.
  std::unique_ptr<obs::JsonlSink> open_jsonl_sink(
      const char* flag, const std::string& path) const;

  // --- throughput accounting for the JSON result --------------------------
  void add_events(std::uint64_t n) { sim_events_ += n; }
  void add_packets(std::uint64_t n) { packets_ += n; }
  void add_trials(std::uint64_t n) { trials_ += n; }
  /// Credits a whole experiment's scheduler events, transmissions, trials
  /// (and its memstats roll-up, if the experiment ran with memstats on).
  void add_experiment(const core::AggregateSummary& agg,
                      std::uint64_t trials);
  /// Credits one directly-run trial.
  void add_trial(const core::TrialSummary& summary);
  /// Folds a memory/hot-path roll-up produced outside run_experiment (e.g.
  /// a micro-workload that read Memstats directly).
  void add_memhot(const obs::MemHotTotals& totals) { memhot_.merge(totals); }

  std::uint64_t sim_events() const { return sim_events_; }
  std::uint64_t packets() const { return packets_; }
  std::uint64_t trials() const { return trials_; }
  const obs::MemHotTotals& memhot() const { return memhot_; }

 private:
  std::ostream* out_;
  bool report_;
  std::uint64_t sim_events_ = 0;
  std::uint64_t packets_ = 0;
  std::uint64_t trials_ = 0;
  obs::MemHotTotals memhot_;
};

using BenchBody = std::function<void(BenchIteration&)>;

/// The standard bench main: measurement loop + optional --json result.
/// Returns the process exit code.
int run_main(const char* name, const BenchArgs& args, const BenchBody& body);

}  // namespace sld::bench
