// Top-level system configuration. Defaults reproduce the paper's §4 setup
// (see DESIGN.md "Recovered constants" for how each number was fixed):
// 1000 nodes in a 1000x1000 ft field, 100 beacons of which 10 compromised,
// 150 ft radio range, 4 ft maximum ranging error, m = 8 detecting IDs,
// p_d = 0.9 wormhole detection rate, one wormhole (100,100)-(800,700),
// thresholds tau1 = 10, tau2 = 2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "attack/framing.hpp"
#include "attack/strategy.hpp"
#include "localization/fallback.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/arq.hpp"
#include "sim/channel.hpp"
#include "sim/faults.hpp"
#include "ranging/rssi.hpp"
#include "ranging/rtt.hpp"
#include "ranging/toa.hpp"
#include "revocation/base_station.hpp"
#include "revocation/failover.hpp"
#include "revocation/shard.hpp"
#include "sim/deployment.hpp"
#include "sim/time.hpp"

namespace sld::core {

/// Largest `SystemConfig::rtt_probe_repeats`: a probe keeps its samples
/// inline, in arrays of this size.
inline constexpr std::size_t kMaxProbeRepeats = 5;

/// Which distance-measurement feature the deployment uses (paper §1 lists
/// RSSI, ToA, TDoA, AoA; §2.3 notes the detector works with any feature
/// that yields a bounded-error distance).
enum class RangingType {
  kRssi,
  kToa,
};

struct SystemConfig {
  sim::DeploymentConfig deployment;  // N, N_b, N_a, field, range

  RangingType ranging_type = RangingType::kRssi;
  ranging::RssiConfig rssi;          // e_max = 4 ft default
  ranging::ToaConfig toa;            // ~3.9 ft at the default sync bound
  ranging::MoteTimingConfig timing;  // Figure 4 RTT model

  /// Which wormhole detector every node carries: the paper's p_d
  /// abstraction, or the concrete geographic-leash detector (whose
  /// effective rate emerges from geometry instead of being assumed).
  enum class WormholeDetectorType { kProbabilistic, kGeographicLeash };
  WormholeDetectorType wormhole_detector_type =
      WormholeDetectorType::kProbabilistic;

  /// p_d of the probabilistic wormhole detector every node carries.
  double wormhole_detection_rate = 0.9;

  /// m: detecting IDs provisioned per benign beacon.
  std::size_t detecting_ids = 8;

  revocation::RevocationConfig revocation;  // tau1 = 10, tau2 = 2

  /// Behaviour of every compromised beacon.
  attack::MaliciousStrategyConfig strategy;

  /// Install the paper's wormhole between (100,100) and (800,700).
  bool paper_wormhole = true;
  /// Additional uniformly random wormholes (the analysis's N_w knob).
  std::size_t extra_random_wormholes = 0;
  /// Explicit extra tunnels (e.g. slow store-and-forward ones), installed
  /// before connectivity is computed.
  std::vector<sim::WormholeLink> custom_wormholes;

  /// Colluding malicious beacons flood alerts against benign beacons
  /// (Figure 14's worst case).
  bool collusion = false;

  /// Alert-storm attack: on top of the collusion plan, each colluder
  /// floods this many extra forged alerts at Zipf-skewed benign targets
  /// during the probe phase. 0 (the default) schedules nothing. Only
  /// meaningful with `collusion` on — the flood reuses the colluder set.
  struct AlertStormConfig {
    std::size_t flood_alerts_per_colluder = 0;
    /// Zipf exponent of the target-popularity skew (1 = classic Zipf;
    /// larger concentrates the flood on fewer victims).
    double zipf_exponent = 1.0;
    /// Flood submissions spread uniformly over this window from the probe
    /// phase start.
    sim::SimTime duration_ns = 30 * sim::kSecond;
  };
  AlertStormConfig storm;

  /// Coverage-directed framing attack: colluders accuse the benign
  /// beacons whose loss degrades coverage most, paced under tau1 and
  /// (when outages are scheduled) aligned to recovery edges. Default:
  /// disabled, nothing scheduled, no randomness drawn. The defense is
  /// `revocation.lifecycle`; framing against the paper's permanent
  /// scheme is the undefended baseline the framing bench sweeps.
  attack::FramingConfig framing;

  /// Localization fallback ladder: when revocation/quarantine leaves a
  /// sensor short of references, degrade multilateration -> robust ->
  /// weighted centroid with an explicit confidence tier instead of
  /// failing. Default: disabled, the seed's multilateration-or-fail.
  localization::FallbackConfig fallback;

  /// Probability a sensor learns a given revocation (paper: ~1 thanks to
  /// retransmission).
  double revocation_reach_probability = 1.0;

  /// Samples for the Figure-4 RTT calibration that fixes x_max.
  std::size_t rtt_calibration_samples = 10'000;

  /// Per-delivery radio loss probability (failure injection; the paper
  /// assumes reliable delivery via retransmission, so default 0).
  double channel_loss_probability = 0.0;

  /// Composable channel fault injection: i.i.d. + bursty loss,
  /// duplication, corruption, delay jitter, crash windows. Default: all
  /// off, reproducing the paper's reliable-delivery assumption exactly.
  sim::FaultPlan faults;

  /// Base-station durability and availability: snapshot/WAL persistence,
  /// scheduled primary outages, standby takeover. Default: disabled, a
  /// zero-cost pass-through to the paper's single immortal base station.
  revocation::FailoverConfig failover;

  /// Overload-resilient alert ingestion in front of the base station:
  /// sharded bounded queues, per-reporter rate limiting, priority-aware
  /// shedding and the WAL circuit breaker. Default: disabled, an exact
  /// pass-through to the cluster (bit-for-bit the seed behaviour).
  revocation::IngestConfig ingest;

  /// Retransmission policy for the probe exchange and sensor queries
  /// (timeout / max retries / exponential backoff with jitter). Disabled
  /// by default: requests are sent once, exactly the seed behaviour.
  sim::ArqConfig arq;

  /// k: how many request/reply rounds each probe performs; the detector
  /// evaluates the *median* measured distance and RTT, so one delayed
  /// retransmission cannot trigger a false local-replay verdict. k = 1
  /// reproduces the single-shot paper protocol. At most kMaxProbeRepeats.
  std::size_t rtt_probe_repeats = 1;

  /// Per-attempt loss probability of the alert transport (detecting
  /// beacon -> base station, typically multi-hop). Retried under `arq`;
  /// alerts that exhaust every attempt are counted as delivery failures.
  double alert_loss_probability = 0.0;

  /// Structured-trace destination (non-owning; must outlive every trial run
  /// with this config). nullptr — the default — means tracing is off and
  /// costs one cached branch per emit site; results are bit-for-bit
  /// identical either way because tracing draws no randomness.
  obs::TraceSink* trace_sink = nullptr;

  /// Streaming telemetry: window cadence, ring depth, and the optional
  /// `timeseries/v1` JSONL sink (non-owning, like trace_sink). Disabled —
  /// the default — constructs no sampler, registers no extra instruments,
  /// and leaves the run bit-for-bit the seed (the scheduler time probe
  /// schedules no events and the sampler draws no randomness).
  obs::TimeseriesOptions telemetry;

  /// SLO health monitors evaluated as telemetry windows close (requires
  /// telemetry.enabled). The verdict and breach log fold into
  /// TrialSummary::metrics_json under "slo".
  std::vector<obs::SloRule> slo_rules;

  /// Memory & hot-path micro-observability (src/obs/memstats): per-scope
  /// allocation telemetry plus scheduler/channel micro-counters (queue
  /// depth, heap sift distances, scan fan-out, packet lifetime). Off — the
  /// default — registers no instruments, keeps the global operator-new hook
  /// on its one-cached-branch fast path, and leaves runs bit-for-bit the
  /// seed. On, per-scope counts are identical at any --jobs because only
  /// scope-tagged simulation allocations are attributed (see DESIGN.md §14).
  bool memstats = false;

  /// Simulation phases: beacons probe first, then sensors localize.
  sim::SimTime probe_phase_start = 0;
  sim::SimTime sensor_phase_start = 60 * sim::kSecond;
  /// Stagger between consecutive probe/query transmissions per node.
  sim::SimTime transmission_stagger = 5 * sim::kMillisecond;

  std::uint64_t seed = 1;
};

}  // namespace sld::core
