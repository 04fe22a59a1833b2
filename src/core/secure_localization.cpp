#include "core/secure_localization.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "attack/collusion.hpp"
#include "attack/wormhole.hpp"
#include "check/invariant.hpp"
#include "sim/arq.hpp"
#include "util/stats.hpp"

namespace sld::core {

namespace {
/// Rejects the settings a trial would otherwise drop without a word.
const SystemConfig& validated(const SystemConfig& config) {
  if (!config.slo_rules.empty() && !config.telemetry.enabled)
    throw std::invalid_argument(
        "SystemConfig: slo_rules need telemetry.enabled");
  if (config.storm.flood_alerts_per_colluder > 0 && !config.collusion)
    throw std::invalid_argument(
        "SystemConfig: storm.flood_alerts_per_colluder needs collusion");
  if (!(config.alert_loss_probability >= 0.0 &&
        config.alert_loss_probability <= 1.0))
    throw std::invalid_argument(
        "SystemConfig: alert_loss_probability outside [0, 1]");
  if (config.detecting_ids == 0)
    throw std::invalid_argument("SystemConfig: detecting_ids must be >= 1");
  // Every attempt up to the last retry must have a timeout, or the trial
  // throws halfway through run().
  if (config.arq.enabled) sim::check_arq(config.arq, config.arq.max_retries);
  if (!(config.sensor_phase_start >= config.probe_phase_start))
    throw std::invalid_argument(
        "SystemConfig: sensor_phase_start before probe_phase_start");
  if (!(std::isfinite(config.deployment.comm_range_ft) &&
        config.deployment.comm_range_ft > 0.0))
    throw std::invalid_argument(
        "SystemConfig: deployment.comm_range_ft must be finite and positive");
  // A beacon is quarantined above tau2 and cleared below clear_threshold;
  // a clear_threshold above tau2 would clear every quarantine at once.
  if (config.revocation.lifecycle.enabled &&
      !(config.revocation.lifecycle.clear_threshold <=
        static_cast<double>(config.revocation.alert_threshold)))
    throw std::invalid_argument(
        "SystemConfig: revocation.lifecycle.clear_threshold above "
        "revocation.alert_threshold");
  return config;
}
}  // namespace

SecureLocalizationSystem::SecureLocalizationSystem(SystemConfig config)
    : config_(validated(config)),
      ctx_(std::make_unique<SystemContext>(config_)),
      network_(sim::ChannelConfig{.faults = config_.faults},
               config_.seed ^ 0xc4a27e1ULL),
      detecting_registry_(sim::kNonBeaconIdBase, sim::kNonBeaconIdLimit) {
  {
    obs::ScopedTimerMs timer(ctx_->instruments, "phase.deployment_ms");
    util::Rng deploy_rng = ctx_->rng.fork(0xdeb107);
    deployment_ = sim::deploy_random(config_.deployment, deploy_rng);
  }

  obs::ScopedTimerMs provision_timer(ctx_->instruments,
                                     "phase.provisioning_ms");
  if (config_.paper_wormhole) {
    attack::install_paper_wormhole(network_.channel(),
                                   config_.deployment.comm_range_ft);
  }
  for (const auto& link : config_.custom_wormholes)
    network_.channel().add_wormhole(link);
  if (config_.extra_random_wormholes > 0) {
    util::Rng wh_rng = ctx_->rng.fork(0x3072);
    attack::install_random_wormholes(
        network_.channel(), config_.deployment.field,
        config_.extra_random_wormholes, config_.deployment.comm_range_ft,
        wh_rng);
  }

  build_nodes();
  // Lifecycle runs need the deployment roster at the base station (and in
  // the durable store, so WAL restore re-registers it before replay): the
  // corroboration check weighs reporters by position and the coverage
  // guard bins beacons into cells. Gated — registering beacons on a
  // lifecycle-disabled station is a no-op, but we skip even that.
  if (config_.revocation.lifecycle.enabled) {
    std::vector<std::pair<sim::NodeId, util::Vec2>> roster;
    for (const auto& spec : deployment_.nodes)
      if (spec.beacon) roster.emplace_back(spec.id, spec.position);
    ctx_->cluster.set_beacon_roster(roster);
  }
  ctx_->scheduler = &network_.scheduler();
  ctx_->faults = &network_.channel().faults();

  // Wire one sink-backed tracer (clocked by the trial's scheduler) through
  // every instrumented layer. With no sink this constructs an off tracer
  // and every emit site stays a single cached branch.
  sim::Scheduler* sched = &network_.scheduler();
  obs::Tracer tracer(config_.trace_sink, [sched]() {
    return static_cast<std::int64_t>(sched->now());
  });
  ctx_->tracer = tracer;
  network_.channel().set_tracer(tracer);
  ctx_->detector->set_tracer(tracer);
  ctx_->cluster.set_tracer(tracer);
  ctx_->ingest.set_tracer(tracer);

  setup_telemetry();
  setup_memstats();

  if (tracer.on()) {
    tracer.emit(
        tracer.event("trial.start")
            .f("seed", config_.seed)
            .f("nodes", static_cast<std::uint64_t>(deployment_.nodes.size()))
            .f("beacons", static_cast<std::uint64_t>(benign_nodes_.size() +
                                                     malicious_nodes_.size()))
            .f("malicious",
               static_cast<std::uint64_t>(malicious_nodes_.size()))
            .f("sensors", static_cast<std::uint64_t>(sensor_nodes_.size())));
    // Ground-truth beacon roster: trace consumers join verdicts against it
    // to separate true detections from false positives.
    for (const auto& spec : deployment_.nodes) {
      if (!spec.beacon) continue;
      tracer.emit(tracer.event("node.beacon")
                      .f("id", spec.id)
                      .f("x", spec.position.x)
                      .f("y", spec.position.y)
                      .f("malicious", spec.malicious));
    }
  }
}

void SecureLocalizationSystem::build_nodes() {
  const double range = config_.deployment.comm_range_ft;

  // Real sensor IDs must be reserved before detecting IDs are drawn, so no
  // detecting ID collides with a deployed sensor.
  for (const auto& spec : deployment_.nodes) {
    if (!spec.beacon) detecting_registry_.reserve_real_id(spec.id);
  }

  util::Rng id_rng = ctx_->rng.fork(0x1d5);
  for (const auto& spec : deployment_.nodes) {
    SLD_INVARIANT(sim::is_beacon_id(spec.id) == spec.beacon,
                  "deployed node " << spec.id << " is a "
                                   << (spec.beacon ? "beacon" : "sensor")
                                   << " with the other kind's ID");
    if (spec.beacon) {
      ctx_->truth[spec.id] = BeaconTruth{spec.position, spec.malicious};
      if (spec.malicious) {
        attack::MaliciousBeaconStrategy strategy(
            config_.strategy, ctx_->rng.fork(0xeb11 + spec.id)());
        auto& node = network_.emplace_node<MaliciousBeaconNode>(
            spec.id, spec.position, range, *ctx_, std::move(strategy));
        malicious_nodes_.push_back(&node);
      } else {
        const auto ids = detecting_registry_.allocate(
            spec.id, config_.detecting_ids, id_rng);
        auto& node = network_.emplace_node<BeaconNode>(
            spec.id, spec.position, range, *ctx_, ids);
        for (const auto alias : ids) network_.add_alias(alias, node);
        benign_nodes_.push_back(&node);
      }
    } else {
      auto& node = network_.emplace_node<SensorNode>(spec.id, spec.position,
                                                     range, *ctx_);
      sensor_nodes_.push_back(&node);
    }
  }

  // Connectivity-driven target lists: detecting beacons probe every beacon
  // they can reach (directly or through a wormhole — the wormhole is how
  // they would have heard of it); sensors query the same set. Every node
  // on the network is a deployed one, whose ID range tells a beacon from a
  // sensor (checked above).
  const auto beacons_reached_by = [this](sim::NodeId id) {
    std::vector<sim::NodeId> targets;
    for (const sim::NodeId other : network_.connected_nodes(id))
      if (sim::is_beacon_id(other)) targets.push_back(other);
    return targets;
  };
  for (auto* beacon : benign_nodes_)
    beacon->set_probe_targets(beacons_reached_by(beacon->id()));
  for (auto* sensor : sensor_nodes_)
    sensor->set_query_targets(beacons_reached_by(sensor->id()));
}

void SecureLocalizationSystem::schedule_collusion() {
  if (!config_.collusion || malicious_nodes_.empty()) return;

  std::vector<sim::NodeId> colluders;
  for (const auto* m : malicious_nodes_) colluders.push_back(m->id());
  std::vector<sim::NodeId> benign_targets;
  for (const auto* b : benign_nodes_) benign_targets.push_back(b->id());
  util::Rng shuffle_rng = ctx_->rng.fork(0xc0111);
  shuffle_rng.shuffle(benign_targets);

  const auto plan = attack::plan_collusion(
      colluders, benign_targets, config_.revocation.report_quota,
      config_.revocation.alert_threshold);

  // Colluders flood as early as possible; transport jitter still
  // interleaves their alerts with honest ones.
  for (const auto& alert : plan.alerts)
    ctx_->submit_alert(alert.reporter, alert.target, /*collusion_alert=*/true);

  // Alert-storm flood: on top of the quota-exact plan above, each colluder
  // fires extra forged alerts at Zipf-skewed benign victims spread across
  // the storm window. Fresh nonces per submission keep the flood from
  // collapsing into duplicates at the base station.
  if (config_.storm.flood_alerts_per_colluder == 0 || benign_targets.empty())
    return;
  util::Rng storm_rng = ctx_->rng.fork(0x57024);
  const util::ZipfSampler zipf(benign_targets.size(),
                               config_.storm.zipf_exponent);
  const auto window = static_cast<std::uint64_t>(
      std::max<sim::SimTime>(config_.storm.duration_ns, 1));
  for (const auto c : colluders) {
    for (std::size_t i = 0; i < config_.storm.flood_alerts_per_colluder;
         ++i) {
      const sim::NodeId victim =
          benign_targets[zipf.sample(storm_rng.uniform01())];
      const sim::SimTime at =
          config_.probe_phase_start +
          static_cast<sim::SimTime>(storm_rng.uniform_u64(window));
      network_.scheduler().schedule_at(at, [this, c, victim]() {
        ctx_->submit_alert(c, victim, /*collusion_alert=*/true);
      });
    }
  }
}

void SecureLocalizationSystem::schedule_framing() {
  if (!config_.framing.enabled || malicious_nodes_.empty()) return;

  std::vector<std::pair<sim::NodeId, util::Vec2>> colluders;
  for (const auto* m : malicious_nodes_)
    colluders.emplace_back(m->id(), m->position());
  std::vector<std::pair<sim::NodeId, util::Vec2>> benign;
  for (const auto* b : benign_nodes_)
    benign.emplace_back(b->id(), b->position());
  std::vector<std::pair<sim::SimTime, sim::SimTime>> outages;
  for (const auto& w : config_.failover.primary_outages)
    outages.emplace_back(w.start, w.end);

  util::Rng framing_rng = ctx_->rng.fork(0xf4a41);
  const auto plan = attack::plan_framing(
      colluders, benign, config_.framing, config_.revocation.report_quota,
      config_.probe_phase_start, outages, framing_rng);
  for (const auto& alert : plan.alerts) {
    const sim::NodeId reporter = alert.reporter;
    const sim::NodeId target = alert.target;
    network_.scheduler().schedule_at(alert.at, [this, reporter, target]() {
      ++ctx_->metrics.framing_alerts_submitted;
      ctx_->submit_alert(reporter, target, /*collusion_alert=*/true);
    });
  }
}

void SecureLocalizationSystem::setup_telemetry() {
  if (!config_.telemetry.enabled) return;
  // Telemetry-only instruments, so default metric snapshots (and the bench
  // goldens) stay byte-identical to the seed. Counts read through their
  // homes; the presample hook sets the gauges that depend on window time.
  obs::MetricsRegistry& reg = ctx_->instruments;
  const sim::Channel& ch = network_.channel();
  const sim::Scheduler& sched = network_.scheduler();
  const SystemContext& ctx = *ctx_;
  reg.counter("channel.tx", [&ch] { return ch.stats().transmissions; });
  reg.counter("channel.deliveries", [&ch] { return ch.stats().deliveries; });
  reg.counter("channel.drops", [&ch] {
    const sim::ChannelStats& st = ch.stats();
    return st.dropped_by_fault + st.partition_drops + st.crashed_drops;
  });
  reg.counter("alerts.submitted",
              [&ctx] { return ctx.metrics.alerts_submitted; });
  reg.counter("bs.revocations",
              [&ctx] { return ctx.metrics.revocation_times.size(); });
  reg.counter("sched.executed", [&sched] { return sched.executed(); });
  reg.gauge("sched.pending",
            [&sched] { return static_cast<double>(sched.pending()); });
  if (config_.ingest.enabled())
    breaker_gauge_ = &reg.gauge("bs.ingest.breaker_state");
  reg.gauge("bs.cluster.in_service",
            [&ctx] { return ctx.cluster.in_service() ? 1.0 : 0.0; });
  if (config_.revocation.lifecycle.enabled) {
    // bs() is the live authority, which a WAL restore replaces.
    reg.counter("bs.quarantines",
                [&ctx] { return ctx.bs().stats().quarantines; });
    reg.counter("bs.exonerations",
                [&ctx] { return ctx.bs().stats().exonerations; });
    reg.counter("bs.escalations",
                [&ctx] { return ctx.bs().stats().escalations; });
    min_usable_gauge_ = &reg.gauge("coverage.min_usable");
  }

  ctx_->timeseries =
      std::make_unique<obs::TimeseriesSampler>(reg, config_.telemetry);
  ctx_->timeseries->set_presample_hook(
      [this](std::int64_t t) { sample_window_edge(t); });

  if (!config_.slo_rules.empty()) {
    ctx_->slo = std::make_unique<obs::SloMonitor>(config_.slo_rules);
    ctx_->slo->add_tracer(ctx_->tracer);
    if (config_.telemetry.sink != nullptr &&
        config_.telemetry.sink != config_.trace_sink) {
      // Breach markers also ride the telemetry stream, so ts_report can
      // annotate timelines without the main trace.
      ctx_->slo->add_tracer(obs::Tracer(config_.telemetry.sink, [&sched]() {
        return static_cast<std::int64_t>(sched.now());
      }));
    }
    obs::SloMonitor* slo = ctx_->slo.get();
    ctx_->timeseries->set_window_observer(
        [slo](const obs::WindowSample& w) { slo->on_window(w); });
  }

  // Drive the sampler from the scheduler clock: windows close exactly when
  // sim time crosses their end, with zero extra events scheduled.
  obs::TimeseriesSampler* ts = ctx_->timeseries.get();
  network_.scheduler().set_time_probe([ts](sim::SimTime t) {
    ts->advance_to(static_cast<std::int64_t>(t));
  });
}

namespace {
/// The memstats scope tags read into the registry, in registration order
/// (matching the SLD_MEM_SCOPE tags spread through the simulation).
constexpr const char* kMemScopes[] = {"scheduler", "channel",   "messages",
                                      "arq",       "detection", "revocation"};
}  // namespace

obs::MemScopeStats SecureLocalizationSystem::MemBaseline::delta() const {
  const obs::MemScopeStats now = obs::Memstats::thread_totals_for(tag);
  obs::MemScopeStats d;
  d.allocs = now.allocs - start.allocs;
  d.alloc_bytes = now.alloc_bytes - start.alloc_bytes;
  d.frees = now.frees - start.frees;
  d.freed_bytes = now.freed_bytes - start.freed_bytes;
  d.peak_live_bytes = now.peak_live_bytes;  // restarted at trial setup
  return d;
}

void SecureLocalizationSystem::setup_memstats() {
  obs::MetricsRegistry& reg = ctx_->instruments;
  if (config_.telemetry.enabled && config_.telemetry.sample_rss)
    rss_gauge_ = &reg.gauge("mem.rss_kb");
  if (!config_.memstats) return;

  // Process-wide switch: idempotent and sticky, so concurrent trials under
  // --jobs can all flip it without coordination.
  obs::Memstats::set_enabled(true);

  for (const char* tag : kMemScopes) {
    // Baseline against this worker thread's running totals: the delta at
    // any later point on the same thread is this trial's own contribution
    // (trials are sealed to one worker, see DESIGN.md §14).
    const MemBaseline base{tag, obs::Memstats::thread_totals_for(tag)};
    mem_.push_back(base);
    const std::string prefix = std::string("mem.") + tag;
    reg.counter(prefix + ".allocs", [base] { return base.delta().allocs; });
    reg.counter(prefix + ".bytes",
                [base] { return base.delta().alloc_bytes; });
    reg.counter(prefix + ".frees", [base] { return base.delta().frees; });
  }
  // Start the peak-live high-water mark fresh, so the end-of-trial peak is
  // the trial's own (plus any pre-trial live bytes — an upper bound).
  obs::Memstats::reset_thread_peaks();

  // Hot-path micro-instruments. Shapes: queue depth and the items a pop
  // moves span 1..~10^6 (most pops move none, one refill can move
  // thousands; a zero lands in the first bucket, min and max stay exact);
  // wait/lifetime are nanoseconds spanning ns..minutes. All log-scaled.
  hot_.queue_depth = &reg.histogram("hot.queue_depth", 1.0, 1 << 20, 64,
                                    obs::HistogramScale::kLog);
  hot_.sift_down = &reg.histogram("hot.sift_down", 1.0, 1 << 20, 64,
                                  obs::HistogramScale::kLog);
  hot_.event_wait_ns = &reg.histogram("hot.event_wait_ns", 1.0, 1e12, 64,
                                      obs::HistogramScale::kLog);
  hot_.scan_fanout = &reg.histogram("hot.scan_fanout", 1.0, 4096.0, 64,
                                    obs::HistogramScale::kLog);
  hot_.packet_lifetime_ns = &reg.histogram("hot.packet_lifetime_ns", 1.0,
                                           1e12, 64, obs::HistogramScale::kLog);
  // The totals behind them read through: every transmit scans once, so
  // the scan count is the transmission count.
  const sim::Scheduler& sched = network_.scheduler();
  const sim::Channel& ch = network_.channel();
  reg.counter("hot.sift_down_steps",
              [&sched] { return sched.sift_down_steps(); });
  reg.counter("hot.scans", [&ch] { return ch.stats().transmissions; });
  reg.counter("hot.scan_nodes", [&ch] { return ch.stats().scan_nodes; });
  network_.scheduler().set_hot_stats(&hot_);
  network_.channel().set_hot_stats(&hot_);
}

void SecureLocalizationSystem::fold_memstats() {
  if (mem_.empty()) return;
  memhot_.enabled = true;
  for (const MemBaseline& m : mem_) {
    const obs::MemScopeStats d = m.delta();
    memhot_.allocs += d.allocs;
    memhot_.alloc_bytes += d.alloc_bytes;
    memhot_.frees += d.frees;
    memhot_.freed_bytes += d.freed_bytes;
    if (d.peak_live_bytes > 0)
      memhot_.peak_live_bytes += static_cast<std::uint64_t>(d.peak_live_bytes);
  }
  memhot_.max_queue_depth = network_.scheduler().max_pending();
  memhot_.queue_depth_p99 = hot_.queue_depth->p99();
  memhot_.sift_down_steps = network_.scheduler().sift_down_steps();
  memhot_.scans = network_.channel().stats().transmissions;
  memhot_.scan_nodes = network_.channel().stats().scan_nodes;
  memhot_.packet_lifetime_p99_ns = hot_.packet_lifetime_ns->p99();
}

void SecureLocalizationSystem::sample_window_edge(std::int64_t t) {
  const auto now = static_cast<sim::SimTime>(t);
  if (breaker_gauge_ != nullptr) {
    // Poll the breaker as a pure function of time — advancing the pipeline
    // from a sampling hook would perturb the trial.
    breaker_gauge_->set(static_cast<double>(
        static_cast<int>(ctx_->ingest.breaker_state(now))));
  }
  // Coverage floor as the defender sees it at the window edge (pure
  // lazy-decay reads).
  if (min_usable_gauge_ != nullptr)
    min_usable_gauge_->set(
        static_cast<double>(ctx_->bs().lifecycle().min_usable(now)));
  if (rss_gauge_ != nullptr)
    rss_gauge_->set(static_cast<double>(obs::current_rss_kb()));
}

void SecureLocalizationSystem::schedule_failover() {
  // Drive cluster availability transitions at their exact times, so
  // bs.failover traces and the recovery-latency histogram are stamped with
  // the true transition instant rather than the next alert's arrival. An
  // empty transition list (the default config) schedules nothing.
  for (const auto& tr : ctx_->cluster.transitions()) {
    const sim::SimTime t = tr.t;
    network_.scheduler().schedule_at(
        t, [this, t]() { ctx_->ingest.advance(t); });
  }
}

void SecureLocalizationSystem::schedule_finalize() {
  // max_targets counts every node a sensor is connected to, not only the
  // beacons it queries. Counting only beacons would move finalize_at, and
  // with it every golden.
  std::size_t max_targets = 0;
  for (const auto* s : sensor_nodes_)
    max_targets = std::max(
        max_targets, network_.connected_nodes(s->id()).size());
  const sim::SimTime finalize_at =
      config_.sensor_phase_start +
      static_cast<sim::SimTime>(max_targets + 2) *
          config_.transmission_stagger +
      sim::kSecond;
  // Pump the ingestion pipeline right before the sensors finalize (the
  // scheduler is FIFO-stable at equal times), so every queued alert whose
  // service time has elapsed is committed and disseminated first. Gated:
  // the default config must schedule no extra event (sched.events is part
  // of the bench goldens).
  if (ctx_->ingest.enabled()) {
    network_.scheduler().schedule_at(finalize_at, [this, finalize_at]() {
      ctx_->ingest.advance(finalize_at);
    });
  }
  for (auto* sensor : sensor_nodes_) {
    network_.scheduler().schedule_at(finalize_at,
                                     [sensor]() { sensor->finalize(); });
  }
}

TrialSummary SecureLocalizationSystem::run() {
  if (ran_)
    throw std::logic_error("SecureLocalizationSystem::run: already ran");
  ran_ = true;

  // Telemetry windows start on the scheduler's t = 0 grid; the ts.meta
  // stream header goes out before any window.
  if (ctx_->timeseries)
    ctx_->timeseries->begin(
        static_cast<std::int64_t>(network_.scheduler().now()), config_.seed);

  // The probing and localization phases are timed separately. Splitting
  // the run at sensor_phase_start executes the exact same event sequence
  // as one uninterrupted run (events are ordered by time either way).
  {
    obs::ScopedTimerMs timer(ctx_->instruments, "phase.probing_ms");
    network_.start_all();
    schedule_collusion();
    schedule_framing();
    schedule_failover();
    schedule_finalize();
    network_.scheduler().run_until(config_.sensor_phase_start);
  }
  {
    obs::ScopedTimerMs timer(ctx_->instruments, "phase.localization_ms");
    network_.run();
  }
  // Force-commit anything still queued in the ingestion shards (and
  // journal deferred degraded-mode commits), then apply any availability
  // transitions past the last executed event, so summarize() reads the
  // final state.
  ctx_->ingest.drain(network_.scheduler().now());
  ctx_->cluster.advance(std::numeric_limits<sim::SimTime>::max());
  // Materialize pending exonerations and emit the end-of-trial coverage
  // census before any state is read. No-op with the lifecycle disabled.
  if (config_.revocation.lifecycle.enabled)
    ctx_->cluster.settle(network_.scheduler().now());

  // Close the telemetry stream: complete windows through now, plus the
  // partial tail, so the final drain/commit burst is visible in the last
  // window and the SLO monitor sees end-of-trial state.
  if (ctx_->timeseries)
    ctx_->timeseries->finish(
        static_cast<std::int64_t>(network_.scheduler().now()));

  fold_memstats();

  ctx_->instruments.gauge("sched.events")
      .set(static_cast<double>(network_.scheduler().executed()));
  ctx_->instruments.gauge("sched.max_queue_depth")
      .set(static_cast<double>(network_.scheduler().max_pending()));
  // Per-node radio energy, iterated in registration order so the
  // histogram's floating-point sums are deterministic.
  for (const auto* node : network_.nodes()) {
    ctx_->node_energy_hist->observe(
        network_.channel().node_radio(node->id()).energy_uj());
  }

  if (ctx_->tracer.on()) {
    std::size_t malicious_revoked = 0;
    std::size_t benign_revoked = 0;
    for (const auto* m : malicious_nodes_)
      if (ctx_->bs().is_revoked(m->id())) ++malicious_revoked;
    for (const auto* b : benign_nodes_)
      if (ctx_->bs().is_revoked(b->id())) ++benign_revoked;
    ctx_->tracer.emit(
        ctx_->tracer.event("trial.end")
            .f("seed", config_.seed)
            .f("malicious_revoked",
               static_cast<std::uint64_t>(malicious_revoked))
            .f("benign_revoked", static_cast<std::uint64_t>(benign_revoked))
            .f("sensors_localized", ctx_->metrics.sensors_localized));
  }
  return summarize();
}

TrialSummary SecureLocalizationSystem::summarize() const {
  TrialSummary s;
  s.benign_beacons = benign_nodes_.size();
  s.malicious_beacons = malicious_nodes_.size();
  s.sensors = sensor_nodes_.size();

  const sim::SimTime end_time = network_.scheduler().now();
  double requester_sum = 0.0;
  for (const auto* m : malicious_nodes_) {
    requester_sum +=
        static_cast<double>(network_.connected_nodes(m->id()).size());
    if (ctx_->bs().is_revoked(m->id()))
      ++s.malicious_revoked;
    else if (ctx_->bs().is_quarantined(m->id(), end_time))
      ++s.malicious_quarantined;
  }
  s.avg_requesters_per_malicious =
      malicious_nodes_.empty()
          ? 0.0
          : requester_sum / static_cast<double>(malicious_nodes_.size());
  for (const auto* b : benign_nodes_) {
    if (ctx_->bs().is_revoked(b->id()))
      ++s.benign_revoked;
    else if (ctx_->bs().is_quarantined(b->id(), end_time))
      ++s.benign_quarantined;
  }
  if (config_.revocation.lifecycle.enabled)
    s.min_cell_usable = ctx_->bs().lifecycle().min_usable(end_time);
  s.detection_rate =
      malicious_nodes_.empty()
          ? 0.0
          : static_cast<double>(s.malicious_revoked +
                                s.malicious_quarantined) /
                static_cast<double>(malicious_nodes_.size());
  s.false_positive_rate =
      benign_nodes_.empty()
          ? 0.0
          : static_cast<double>(s.benign_revoked) /
                static_cast<double>(benign_nodes_.size());

  std::uint64_t affected = 0;
  for (const auto& [beacon, count] : ctx_->metrics.affected_by_malicious)
    affected += count;
  s.affected_sensor_references = affected;
  s.avg_affected_per_malicious =
      malicious_nodes_.empty()
          ? 0.0
          : static_cast<double>(affected) /
                static_cast<double>(malicious_nodes_.size());

  s.sensors_localized = ctx_->metrics.sensors_localized;
  s.sensors_unlocalized = ctx_->metrics.sensors_unlocalized;
  s.mean_localization_error_ft = ctx_->metrics.localization_error_ft.mean();
  s.max_localization_error_ft = ctx_->metrics.localization_error_ft.max();
  if (!ctx_->metrics.localization_errors_ft.empty()) {
    // Nearest-rank p99 over the raw per-sensor sample.
    std::vector<double> errs = ctx_->metrics.localization_errors_ft;
    std::sort(errs.begin(), errs.end());
    const std::size_t rank = (errs.size() * 99 + 99) / 100;
    s.p99_localization_error_ft = errs[std::min(rank, errs.size()) - 1];
  }

  double latency_sum_ms = 0.0;
  std::size_t latency_count = 0;
  for (const auto& [beacon, at] : ctx_->metrics.revocation_times) {
    const auto truth_it = ctx_->truth.find(beacon);
    if (truth_it == ctx_->truth.end() || !truth_it->second.malicious) continue;
    latency_sum_ms += static_cast<double>(at) /
                      static_cast<double>(sim::kMillisecond);
    ++latency_count;
  }
  if (latency_count > 0)
    s.mean_malicious_revocation_latency_ms =
        latency_sum_ms / static_cast<double>(latency_count);
  s.radio_energy_uj = network_.channel().total_radio().energy_uj();

  s.sched_events = network_.scheduler().executed();
  s.rtt_x_max_cycles = ctx_->rtt_calibration.x_max_cycles;
  s.raw = ctx_->metrics;
  s.base_station = ctx_->bs().stats();
  s.cluster = ctx_->cluster.stats();
  s.durable = ctx_->cluster.wal().stats();
  s.ingest = ctx_->ingest.stats();
  s.channel = network_.channel().stats();
  s.memhot = memhot_;
  s.metrics_json = ctx_->instruments.snapshot_json();
  if (ctx_->slo) {
    s.slo.enabled = true;
    s.slo.healthy = ctx_->slo->healthy();
    s.slo.breaches = ctx_->slo->breaches();
    s.slo.recovers = ctx_->slo->recovers();
    // Fold the verdict + breach log into the snapshot document (insert
    // before the closing brace).
    s.metrics_json.insert(s.metrics_json.size() - 1,
                          ",\"slo\":" + ctx_->slo->verdict_json());
  }
  return s;
}

}  // namespace sld::core
