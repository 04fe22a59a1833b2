#include "core/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "core/executor.hpp"
#include "obs/trace.hpp"

namespace sld::core {

namespace {

/// Everything one trial produces, buffered so the merge loop can replay it
/// in seed order regardless of which worker finished when.
struct TrialOutcome {
  TrialSummary summary;
  double wall_ms = 0.0;
  /// Lines the trial emitted into its private trace buffer (empty when the
  /// experiment has no trace sink). When the experiment's telemetry sink
  /// aliases its trace sink, the telemetry lines interleave here exactly
  /// as the trial emitted them — the aliasing is preserved per trial.
  std::vector<std::string> trace_lines;
  /// Telemetry lines when the timeseries sink is distinct from the trace
  /// sink.
  std::vector<std::string> timeseries_lines;
};

/// Runs one complete trial. `wall_ms` covers setup, run and teardown.
TrialOutcome run_one_trial(const SystemConfig& trial_config) {
  TrialOutcome out;
  const auto wall_start = std::chrono::steady_clock::now();
  {
    SecureLocalizationSystem system(trial_config);
    out.summary = system.run();
  }
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
  return out;
}

/// Folds one trial into the aggregate. Shared by the serial loop and the
/// parallel merge so both paths accumulate in the identical order with the
/// identical arithmetic.
void accumulate(AggregateSummary& agg, TrialOutcome&& out,
                bool keep_trial_summaries) {
  const TrialSummary& summary = out.summary;
  agg.trial_wall_ms.add(out.wall_ms);
  agg.total_sched_events += summary.sched_events;
  agg.total_packets += summary.channel.transmissions;
  agg.total_slo_breaches += summary.slo.breaches;
  if (summary.slo.enabled && !summary.slo.healthy)
    ++agg.slo_unhealthy_trials;
  agg.memhot.merge(summary.memhot);
  agg.detection_rate.add(summary.detection_rate);
  agg.false_positive_rate.add(summary.false_positive_rate);
  agg.affected_per_malicious.add(summary.avg_affected_per_malicious);
  agg.mean_localization_error_ft.add(summary.mean_localization_error_ft);
  agg.requesters_per_malicious.add(summary.avg_requesters_per_malicious);
  agg.sensors_localized.add(static_cast<double>(summary.sensors_localized));
  if (summary.mean_malicious_revocation_latency_ms > 0.0)
    agg.revocation_latency_ms.add(
        summary.mean_malicious_revocation_latency_ms);
  agg.radio_energy_uj.add(summary.radio_energy_uj);
  if (keep_trial_summaries) agg.trials.push_back(std::move(out.summary));
}

AggregateSummary run_serial(const ExperimentConfig& config) {
  AggregateSummary agg;
  for (std::size_t i = 0; i < config.trials; ++i) {
    SystemConfig trial_config = config.base;
    trial_config.seed = config.base.seed + i;
    accumulate(agg, run_one_trial(trial_config),
               config.keep_trial_summaries);
  }
  return agg;
}

AggregateSummary run_parallel(const ExperimentConfig& config) {
  // Ownership rules (DESIGN.md §13): each trial is a sealed unit — its own
  // Scheduler, Network, RNG streams, MetricsRegistry, and buffered
  // observability sinks live and die on one worker. The experiment-level
  // sinks and the aggregate are touched only by this (the calling) thread,
  // strictly after the workers join.
  obs::TraceSink* const trace_sink = config.base.trace_sink;
  obs::TraceSink* const ts_sink = config.base.telemetry.sink;
  const bool ts_aliases_trace = ts_sink != nullptr && ts_sink == trace_sink;

  std::vector<TrialOutcome> outcomes =
      run_indexed(config.trials, config.jobs, [&](std::size_t i) {
        SystemConfig trial_config = config.base;
        trial_config.seed = config.base.seed + i;
        // Private per-trial buffers in place of the shared sinks: the
        // trial writes as if it owned the stream; the merge below replays
        // the buffers in seed order, reproducing the serial interleaving.
        obs::MemorySink trace_buffer;
        obs::MemorySink timeseries_buffer;
        if (trace_sink != nullptr) trial_config.trace_sink = &trace_buffer;
        if (ts_sink != nullptr) {
          trial_config.telemetry.sink =
              ts_aliases_trace ? &trace_buffer : &timeseries_buffer;
        }
        TrialOutcome out = run_one_trial(trial_config);
        out.trace_lines = trace_buffer.take_lines();
        out.timeseries_lines = timeseries_buffer.take_lines();
        return out;
      });

  // Seed-ordered merge: statistics accumulate and streams flush in the
  // exact order the serial loop would have produced them.
  AggregateSummary agg;
  for (TrialOutcome& out : outcomes) {
    if (trace_sink != nullptr)
      for (const auto& line : out.trace_lines) trace_sink->write(line);
    if (ts_sink != nullptr && !ts_aliases_trace)
      for (const auto& line : out.timeseries_lines) ts_sink->write(line);
    out.trace_lines.clear();
    out.timeseries_lines.clear();
    accumulate(agg, std::move(out), config.keep_trial_summaries);
  }
  return agg;
}

}  // namespace

AggregateSummary run_experiment(const ExperimentConfig& config) {
  if (std::min(resolve_jobs(config.jobs), config.trials) <= 1)
    return run_serial(config);
  return run_parallel(config);
}

analysis::ModelParams model_params_for(const SystemConfig& config,
                                       double measured_requesters) {
  analysis::ModelParams p;
  p.total_nodes = config.deployment.total_nodes;
  p.beacon_count = config.deployment.beacon_count;
  p.malicious_count = config.deployment.malicious_beacon_count;
  p.wormhole_count =
      (config.paper_wormhole ? 1 : 0) + config.extra_random_wormholes;
  p.wormhole_detection_rate = config.wormhole_detection_rate;
  p.detecting_ids = config.detecting_ids;
  p.requesters_per_beacon =
      static_cast<std::size_t>(std::llround(measured_requesters));
  p.report_quota = config.revocation.report_quota;
  p.alert_threshold = config.revocation.alert_threshold;
  return p;
}

}  // namespace sld::core
