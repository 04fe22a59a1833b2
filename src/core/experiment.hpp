// Multi-trial experiment runner: repeats a SystemConfig across seeds and
// aggregates the TrialSummary quantities the figures plot.
//
// Trials are independent, seed-deterministic units, so they parallelize
// embarrassingly: `jobs > 1` fans them out with run_indexed
// (core/executor.hpp), each worker running complete trials with its own
// Scheduler/Network/RNG/MetricsRegistry and per-trial buffered trace and
// telemetry sinks. Results are merged strictly in seed order after the
// workers join, so every statistic, golden, metrics_json rollup, and
// flushed trace/timeseries stream is byte-identical to a `jobs = 1` run
// (tests/test_executor.cpp proves this property; DESIGN.md §13 states the
// ownership and merge-ordering rules). The only values that legitimately
// differ across jobs levels are host wall-clock measurements
// (AggregateSummary::trial_wall_ms and the `phase.*_ms` gauges inside
// metrics_json), which exist to measure the host, not the simulation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "analysis/formulas.hpp"
#include "core/secure_localization.hpp"
#include "util/stats.hpp"

namespace sld::core {

struct ExperimentConfig {
  SystemConfig base;
  std::size_t trials = 5;
  /// Seed of trial i is base.seed + i.
  bool keep_trial_summaries = false;
  /// Concurrent trials: 1 (the default) runs the serial loop on the
  /// calling thread, which starts no thread and streams trace and
  /// telemetry lines straight to the sinks. 0 means one job per hardware
  /// thread. N > 1 runs up to N trials concurrently (never more than
  /// there are trials) with seed-ordered merge.
  std::size_t jobs = 1;
};

struct AggregateSummary {
  util::RunningStat detection_rate;
  util::RunningStat false_positive_rate;
  util::RunningStat affected_per_malicious;  // N'
  util::RunningStat mean_localization_error_ft;
  util::RunningStat requesters_per_malicious;  // measured N_c
  util::RunningStat sensors_localized;
  /// Mean malicious-revocation latency, ms (trials where something
  /// malicious was revoked).
  util::RunningStat revocation_latency_ms;
  /// Whole-network radio energy per trial, microjoules.
  util::RunningStat radio_energy_uj;
  /// Host wall-clock time per trial, milliseconds (profiling, not
  /// simulation output — varies run to run and across jobs levels).
  util::RunningStat trial_wall_ms;
  /// Throughput denominators summed across trials: scheduler events and
  /// radio transmissions — the bench protocol's events/sec and
  /// packets/sec numerators.
  std::uint64_t total_sched_events = 0;
  std::uint64_t total_packets = 0;
  /// SLO health across trials (all zero unless telemetry + rules are on):
  /// total breach firings and trials that ended with a rule still in
  /// breach.
  std::uint64_t total_slo_breaches = 0;
  std::uint64_t slo_unhealthy_trials = 0;
  /// Memory & hot-path roll-up merged across trials (counts summed, depth
  /// and p99s maxed). Inert defaults unless SystemConfig::memstats is on;
  /// the integer counts are exact and identical at any jobs level.
  obs::MemHotTotals memhot;
  std::vector<TrialSummary> trials;  // filled iff keep_trial_summaries
};

/// Runs `config.trials` independent trials, `config.jobs` at a time.
AggregateSummary run_experiment(const ExperimentConfig& config);

/// Builds analytical ModelParams matching a system config, with N_c taken
/// from the measured average (`measured_requesters`) so theory and
/// simulation are compared on the same footing (the paper feeds its
/// analysis the same deployment parameters).
analysis::ModelParams model_params_for(const SystemConfig& config,
                                       double measured_requesters);

}  // namespace sld::core
