#include "core/nodes.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "check/invariant.hpp"
#include "crypto/mac.hpp"
#include "localization/fallback.hpp"
#include "obs/memstats.hpp"
#include "sim/channel.hpp"

namespace sld::core {

namespace {
/// Builds the wire message for a payload, authenticated under `key`, the
/// pairwise key of src and dst.
sim::Message make_message(const crypto::Key128& key, sim::NodeId src,
                          sim::NodeId dst, sim::MsgType type,
                          const sim::Payload& payload) {
  sim::Message msg;
  msg.src = src;
  msg.dst = dst;
  msg.type = type;
  msg.payload = payload;
  msg.mac = crypto::compute_mac(key, src, dst, msg.payload);
  return msg;
}

/// True if `msg` carries a valid tag under `key`, the pairwise key of its
/// src and dst.
bool verify(const crypto::Key128& key, const sim::Message& msg) {
  return crypto::verify_mac(key, msg.src, msg.dst, msg.payload, msg.mac);
}

/// A responding beacon's side of the exchange, benign or malicious: verify
/// the request (a forgery counts as a MAC failure), then send `self`'s
/// reply, which `craft` builds from the request's nonce.
template <typename Craft>
void answer_request(SystemContext& ctx, const sim::Node& self,
                    sim::Channel& channel, const sim::Message& request,
                    Craft&& craft) {
  const crypto::Key128 key = ctx.keys.pairwise_key(request.src, request.dst);
  if (!verify(key, request)) {
    ++ctx.metrics.mac_failures;
    return;
  }
  const auto req = sim::BeaconRequestPayload::parse(request.payload);
  const sim::BeaconReplyPayload reply = craft(req.nonce);
  // A request addresses its target's own ID, so the reply travels between
  // the same two nodes, under the key that verified the request: one
  // derivation per answer. A request that reached `self` under another ID
  // (an alias; nothing sends one today) has its reply's key derived.
  const crypto::Key128 reply_key =
      request.dst == self.id() ? key
                               : ctx.keys.pairwise_key(self.id(), request.src);
  channel.unicast(self, make_message(reply_key, self.id(), request.src,
                                     sim::MsgType::kBeaconReply,
                                     reply.serialize()));
}
}  // namespace

SystemContext::SystemContext(const SystemConfig& cfg)
    : config(cfg),
      keys(crypto::PairwiseKeyManager::from_seed(cfg.seed ^
                                                 0x6b6579736565643fULL)),
      rssi(cfg.rssi),
      toa(cfg.toa),
      timing(cfg.timing),
      cluster(cfg.revocation, cfg.failover),
      ingest(cfg.ingest, cluster),
      rng(cfg.seed) {
  // Calibrate the RTT filter exactly the way the paper does: measure the
  // no-attack distribution and take x_max as the acceptance threshold.
  {
    obs::ScopedTimerMs timer(instruments, "phase.calibration_ms");
    util::Rng calib_rng = rng.fork(0xca11b);
    rtt_calibration = ranging::calibrate_rtt(
        timing, cfg.rtt_calibration_samples, cfg.deployment.comm_range_ft,
        calib_rng);
  }
  // Register the per-trial histograms up front so their order in the
  // snapshot is stable. RTT ranges are keyed off the calibrated x_max;
  // out-of-range samples clamp into the edge buckets (min/max stay exact).
  const double rtt_hi = 2.0 * rtt_calibration.x_max_cycles;
  rtt_probe_hist = &instruments.histogram("rtt.probe_cycles", 0.0, rtt_hi, 64);
  rtt_query_hist = &instruments.histogram("rtt.query_cycles", 0.0, rtt_hi, 64);
  residual_hist =
      &instruments.histogram("ranging.residual_ft", -20.0, 20.0, 80);
  alert_counter_hist = &instruments.histogram(
      "bs.alert_counter", 0.0,
      static_cast<double>(cfg.revocation.alert_threshold + 8), 16);
  node_energy_hist =
      &instruments.histogram("radio.node_energy_uj", 0.0, 100'000.0, 50);
  // Registered only for failover-enabled configs: the default metric
  // snapshot (and with it the bench goldens) must stay byte-identical.
  if (cfg.failover.any_enabled()) {
    recovery_hist =
        &instruments.histogram("recovery.latency_ms", 0.0, 10'000.0, 32);
    cluster.set_recovery_histogram(recovery_hist);
  }
  // Ingest instruments exist only for pipeline-enabled configs, for the
  // same goldens reason as recovery.latency_ms above.
  if (cfg.ingest.enabled()) {
    ingest.register_instruments(instruments);
    ingest.set_commit_hook([this](sim::NodeId /*reporter*/, sim::NodeId target,
                                  revocation::AlertDisposition disposition,
                                  sim::SimTime /*enqueued_at*/,
                                  sim::SimTime committed_at) {
      record_committed(target, disposition, committed_at);
    });
  }
  switch (cfg.wormhole_detector_type) {
    case SystemConfig::WormholeDetectorType::kProbabilistic:
      wormhole_detector =
          std::make_unique<ranging::ProbabilisticWormholeDetector>(
              cfg.wormhole_detection_rate, cfg.seed ^ 0x3a1e5bd7a11ULL);
      break;
    case SystemConfig::WormholeDetectorType::kGeographicLeash:
      wormhole_detector =
          std::make_unique<ranging::GeographicLeashDetector>(
              max_ranging_error_ft());
      break;
  }
  detection::DetectorConfig det_cfg;
  det_cfg.max_ranging_error_ft = max_ranging_error_ft();
  det_cfg.replay.rtt_x_max_cycles = rtt_calibration.x_max_cycles;
  // Clock drift stretches an honest RTT by at most rate_rx - rate_tx over
  // the turnaround, i.e. 2*max_drift_ppm in the worst case; widen the
  // replay filter's acceptance band by that much so drift alone can never
  // read as replay delay. Zero with drift disabled — the calibrated x_max
  // is used untouched.
  if (cfg.faults.clock_drift.enabled()) {
    det_cfg.replay.rtt_x_max_cycles +=
        2.0 * cfg.faults.clock_drift.max_drift_ppm * 1e-6 *
        cfg.faults.clock_drift.turnaround_cycles;
  }
  detector.emplace(det_cfg, wormhole_detector.get());
}

double SystemContext::max_ranging_error_ft() const {
  switch (config.ranging_type) {
    case RangingType::kRssi:
      return config.rssi.max_error_ft;
    case RangingType::kToa:
      return toa.max_error_ft();
  }
  return config.rssi.max_error_ft;  // unreachable
}

void SystemContext::submit_alert(sim::NodeId reporter, sim::NodeId target,
                                 bool collusion_alert) {
  if (scheduler == nullptr)
    throw std::logic_error("SystemContext: scheduler not wired");
  if (collusion_alert)
    ++metrics.collusion_alerts_submitted;
  else
    ++metrics.alerts_submitted;
  metrics.alert_log.push_back({reporter, target, collusion_alert});
  if (tracer.on()) {
    tracer.emit(tracer.event("alert.submit")
                    .f("reporter", reporter)
                    .f("target", target)
                    .f("collusion", collusion_alert));
  }
  // A fresh nonce per *submission* (not per attempt): every transport copy
  // of this alert carries the same nonce, so the base station's dedup makes
  // retransmission idempotent.
  const std::uint64_t nonce = ++next_alert_nonce;
  const sim::SimTime jitter = static_cast<sim::SimTime>(
      rng.uniform(0.0, 50.0 * static_cast<double>(sim::kMillisecond)));
  scheduler->schedule_after(jitter, [this, reporter, target, nonce]() {
    deliver_alert_attempt(reporter, target, nonce, 0);
  });
}

void SystemContext::deliver_alert_attempt(sim::NodeId reporter,
                                          sim::NodeId target,
                                          std::uint64_t nonce,
                                          std::size_t attempt) {
  SLD_INVARIANT(attempt <= config.arq.max_retries,
                "retries bounded: alert delivery attempt " << attempt
                    << " exceeds max_retries=" << config.arq.max_retries);
  // The alert (and its ARQ retry state) lives in the reporter's volatile
  // memory: if the reporter is inside a crash window when this attempt
  // fires, the alert dies with it.
  if (faults != nullptr && faults->enabled() &&
      faults->node_crashed(reporter, scheduler->now())) {
    ++metrics.alerts_dropped_reporter_crash;
    if (tracer.on()) {
      tracer.emit(tracer.event("alert.reporter_down")
                      .f("reporter", reporter)
                      .f("target", target)
                      .f("attempt", static_cast<std::uint64_t>(attempt)));
    }
    return;
  }
  // An unavailable base station (primary down, standby not yet promoted)
  // looks exactly like a transport loss to the reporter: no ack arrives
  // and the ARQ policy retries. available() is vacuously true — and draws
  // nothing, schedules nothing — for the default failover config.
  const bool station_up = cluster.available(scheduler->now());
  if (!station_up) ++metrics.alerts_station_unavailable;
  // bernoulli(0) draws nothing, so the default lossless transport leaves
  // the per-trial RNG stream untouched.
  if (station_up && !rng.bernoulli(config.alert_loss_probability)) {
    if (!ingest.enabled()) {
      if (tracer.on()) {
        tracer.emit(tracer.event("alert.delivered")
                        .f("reporter", reporter)
                        .f("target", target)
                        .f("attempt", static_cast<std::uint64_t>(attempt)));
      }
      const auto disposition =
          cluster.process_alert(scheduler->now(), reporter, target, nonce);
      record_committed(target, disposition, scheduler->now());
      return;
    }
    // Pipeline path: an enqueued (or pair-absorbed) alert is acked — its
    // counting happens at shard-commit time through the commit hook. A
    // shed or rate-limited alert got no ack, which to the reporter is
    // indistinguishable from a transport loss: fall through to the ARQ
    // retry path below and try again once the storm eases.
    const revocation::IngestResult res =
        ingest.submit(scheduler->now(), reporter, target, nonce);
    if (res.kind == revocation::IngestResult::Kind::kEnqueued ||
        res.kind == revocation::IngestResult::Kind::kAbsorbed) {
      if (tracer.on()) {
        tracer.emit(tracer.event("alert.delivered")
                        .f("reporter", reporter)
                        .f("target", target)
                        .f("attempt", static_cast<std::uint64_t>(attempt)));
      }
      return;
    }
  }
  // Attempt lost in transit (or no station was up to receive it).
  if (tracer.on()) {
    tracer.emit(tracer.event("alert.lost")
                    .f("reporter", reporter)
                    .f("target", target)
                    .f("attempt", static_cast<std::uint64_t>(attempt)));
  }
  if (config.arq.enabled && attempt < config.arq.max_retries) {
    ++metrics.alert_retransmissions;
    const sim::SimTime delay = sim::arq_timeout(config.arq, attempt, rng);
    if (tracer.on()) {
      tracer.emit(tracer.event("alert.retry")
                      .f("reporter", reporter)
                      .f("target", target)
                      .f("attempt", static_cast<std::uint64_t>(attempt + 1))
                      .f("delay_ns", static_cast<std::int64_t>(delay)));
    }
    scheduler->schedule_after(delay,
                              [this, reporter, target, nonce, attempt]() {
      deliver_alert_attempt(reporter, target, nonce, attempt + 1);
    });
  } else {
    ++metrics.alerts_delivery_failed;
    if (tracer.on()) {
      tracer.emit(tracer.event("alert.giveup")
                      .f("reporter", reporter)
                      .f("target", target)
                      .f("attempt", static_cast<std::uint64_t>(attempt)));
    }
  }
}

void SystemContext::record_committed(sim::NodeId target,
                                     revocation::AlertDisposition disposition,
                                     sim::SimTime at) {
  if (disposition == revocation::AlertDisposition::kAccepted ||
      disposition == revocation::AlertDisposition::kAcceptedAndRevoked) {
    alert_counter_hist->observe(
        static_cast<double>(cluster.alert_counter(target)));
  }
  if (disposition == revocation::AlertDisposition::kAcceptedAndRevoked) {
    metrics.revocation_times.emplace_back(target, at);
  }
}

SystemContext::SignalMeasurement SystemContext::measure(
    const sim::Delivery& delivery, const sim::BeaconReplyPayload& payload,
    const util::Vec2& receiver_position, util::Rng& node_rng,
    double rtt_skew_cycles) const {
  SignalMeasurement m;
  // Ranging measures distance to wherever the energy radiated from.
  const double physical_distance =
      util::distance(delivery.ctx.radiating_position, receiver_position);
  m.physical_distance_ft = physical_distance;
  switch (config.ranging_type) {
    case RangingType::kRssi:
      m.distance_ft = rssi.measure_manipulated(
          physical_distance, payload.range_manipulation_ft, node_rng);
      break;
    case RangingType::kToa:
      // The attacker's manipulation is expressed in feet; convert to the
      // equivalent timestamp shift (1 ft ~ 1.0167 ns).
      m.distance_ft = toa.measure_manipulated(
          physical_distance,
          payload.range_manipulation_ft /
              (sim::kSpeedOfLightFtPerSec * 1e-9),
          node_rng);
      break;
  }
  // RTT = honest hardware sample + replay delay + the target's timing lie
  // + the receiver/sender clock-rate mismatch over the turnaround (0
  // unless clock drift is injected).
  m.rtt_cycles = timing.sample_rtt_cycles(physical_distance, node_rng) +
                 delivery.ctx.extra_delay_cycles +
                 payload.processing_bias_cycles + rtt_skew_cycles;
  return m;
}

// --- Requester -----------------------------------------------------------

/// Outside what a reply means, a detecting probe and a sensor query differ
/// only in the counters they move and in their trace names.
struct RequestKind {
  const char* name;        // `kind` of the arq.timeout/retry/giveup events
  const char* send_event;  // traced at every (re)transmission
  bool traces_from;        // send_event carries `from` as det_id
  std::uint64_t Metrics::*sent;
  std::uint64_t Metrics::*retransmissions;
  std::uint64_t Metrics::*no_response;
};

constexpr RequestKind kProbeRequests{
    "probe", "probe.send", true, &Metrics::probes_sent,
    &Metrics::probe_retransmissions, &Metrics::probe_no_response};
constexpr RequestKind kQueryRequests{
    "query", "query.send", false, &Metrics::sensor_requests,
    &Metrics::sensor_retransmissions, &Metrics::sensor_no_response};

Requester::Requester(sim::NodeId id, util::Vec2 position, double range_ft,
                     SystemContext& ctx, const RequestKind& kind,
                     std::uint64_t rng_salt)
    : sim::Node(id, position, range_ft),
      ctx_(ctx),
      pending_(&ctx.node_memory),
      rng_(ctx.rng.fork(rng_salt + id)),
      kind_(kind) {}

void Requester::send_request(const Request& request, bool is_retransmission) {
  SLD_INVARIANT(request.attempt <= ctx_.config.arq.max_retries,
                "retries bounded: " << kind_.name << " attempt "
                    << request.attempt << " exceeds max_retries="
                    << ctx_.config.arq.max_retries);
  sim::BeaconRequestPayload req;
  req.nonce = rng_();
  const std::uint64_t nonce = req.nonce;
  pending_.add(nonce, request);
  ++(ctx_.metrics.*(is_retransmission ? kind_.retransmissions : kind_.sent));
  if (ctx_.tracer.on()) {
    obs::Event event = ctx_.tracer.event(kind_.send_event);
    event.f("node", id());
    if (kind_.traces_from) event.f("det_id", request.from);
    event.f("target", request.target)
        .f("nonce", nonce)
        .f("attempt", static_cast<std::uint64_t>(request.attempt))
        .f("retx", is_retransmission);
    ctx_.tracer.emit(event);
  }
  channel().unicast(
      *this, make_message(ctx_.keys.pairwise_key(request.from, request.target),
                          request.from, request.target,
                          sim::MsgType::kBeaconRequest, req.serialize()));
  if (ctx_.config.arq.enabled) {
    const sim::SimTime timeout =
        sim::arq_timeout(ctx_.config.arq, request.attempt, rng_);
    // Boot-epoch-fenced: a timeout scheduled before a crash must not fire
    // into the rebooted node's fresh state.
    schedule_timer(timeout, [this, nonce]() { on_timeout(nonce); });
  }
}

void Requester::on_timeout(std::uint64_t nonce) {
  SLD_MEM_SCOPE("arq");
  const Request* unanswered = pending_.find(nonce);
  if (unanswered == nullptr) return;  // a reply arrived in time
  Request entry = *unanswered;
  pending_.erase(unanswered);
  const auto trace = [&](const char* event) {
    if (!ctx_.tracer.on()) return;
    ctx_.tracer.emit(
        ctx_.tracer.event(event)
            .f("node", id())
            .f("target", entry.target)
            .f("kind", kind_.name)
            .f("attempt", static_cast<std::uint64_t>(entry.attempt)));
  };
  trace("arq.timeout");
  if (entry.attempt < ctx_.config.arq.max_retries) {
    // Retransmit under a fresh nonce: a straggling reply to the old nonce
    // is ignored and the retransmission's RTT clock starts clean, so the
    // timeout itself can never read as replay delay.
    ++entry.attempt;
    trace("arq.retry");
    send_request(entry, /*is_retransmission=*/true);
    return;
  }
  // Every attempt exhausted: the beacon never answered, which is counted
  // (ProbeOutcome::kNoResponse for a probe, one fewer location reference
  // for a query) instead of vanishing.
  ++(ctx_.metrics.*kind_.no_response);
  trace("arq.giveup");
}

auto Requester::match_reply(const sim::Delivery& delivery)
    -> std::optional<Answer> {
  const sim::Message& msg = delivery.msg;
  if (!verify(ctx_.keys.pairwise_key(msg.src, msg.dst), msg)) {
    ++ctx_.metrics.mac_failures;
    return std::nullopt;
  }
  const auto reply = sim::BeaconReplyPayload::parse(msg.payload);
  const Request* found = pending_.find(reply.nonce);
  if (found == nullptr) return std::nullopt;  // duplicate or stale
  const Request request = *found;
  pending_.erase(found);
  // Only the beacon asked may answer: another holds its own pairwise key
  // with this ID, so its MAC verifies, but its reply says nothing of the
  // target.
  if (msg.src != request.target) return std::nullopt;
  return Answer{request, reply};
}

// --- BeaconNode ----------------------------------------------------------

BeaconNode::BeaconNode(sim::NodeId id, util::Vec2 position, double range_ft,
                       SystemContext& ctx,
                       std::vector<sim::NodeId> detecting_ids)
    : Requester(id, position, range_ft, ctx, kProbeRequests, 0xbea0000ULL),
      detecting_ids_(std::move(detecting_ids)) {}

void BeaconNode::set_probe_targets(std::vector<sim::NodeId> targets) {
  probe_targets_ = std::move(targets);
}

void BeaconNode::start() { schedule_probes(); }

void BeaconNode::schedule_probes() {
  // Probe every target beacon once per detecting ID, staggered so the
  // event queue interleaves nodes deterministically but not degenerately.
  // At start() this begins at probe_phase_start exactly as the seed did;
  // after a reboot it begins at the current time instead. The series
  // keeps only its next probe queued.
  schedule_timer_series(
      std::max(scheduler().now(), ctx_.config.probe_phase_start),
      ctx_.config.transmission_stagger,
      probe_targets_.size() * detecting_ids_.size(), [this](std::size_t k) {
        const std::size_t m = detecting_ids_.size();
        send_request({.target = probe_targets_[k / m],
                      .from = detecting_ids_[k % m]},
                     /*is_retransmission=*/false);
      });
}

void BeaconNode::on_crash(sim::SimTime) {
  // Volatile state dies with the node: in-flight probes (their ARQ timers
  // are epoch-fenced) and the memory of which targets were already
  // reported.
  pending_.clear();
  reported_.clear();
}

void BeaconNode::on_reboot(sim::SimTime now, sim::SimTime) {
  // Rebooting inside the probe phase restarts the probe schedule from
  // scratch; after the phase the node just resumes answering requests.
  if (now < ctx_.config.sensor_phase_start) schedule_probes();
}

void BeaconNode::on_message(const sim::Delivery& delivery) {
  switch (delivery.msg.type) {
    case sim::MsgType::kBeaconRequest:
      answer_request(ctx_, *this, channel(), delivery.msg,
                     [this](std::uint64_t nonce) {
                       sim::BeaconReplyPayload reply;
                       reply.nonce = nonce;
                       reply.claimed_position = position();  // truthful
                       return reply;
                     });
      return;
    case sim::MsgType::kBeaconReply:
      handle_probe_reply(delivery);
      return;
    default:
      return;  // beacons ignore other traffic
  }
}

void BeaconNode::handle_probe_reply(const sim::Delivery& delivery) {
  SLD_MEM_SCOPE("detection");
  const auto answer = match_reply(delivery);
  if (!answer) return;
  const sim::NodeId target = answer->request.target;
  const sim::BeaconReplyPayload& reply = answer->reply;
  ++ctx_.metrics.probe_replies;

  const auto m = ctx_.measure(
      delivery, reply, position(), rng_,
      channel().faults().rtt_skew_cycles(id(), delivery.msg.src));
  ctx_.rtt_probe_hist->observe(m.rtt_cycles);
  ctx_.residual_hist->observe(m.distance_ft - m.physical_distance_ft);
  if (ctx_.tracer.on()) {
    ctx_.tracer.emit(ctx_.tracer.event("probe.reply")
                         .f("node", id())
                         .f("target", target)
                         .f("nonce", reply.nonce)
                         .f("dist_ft", m.distance_ft)
                         .f("rtt_cycles", m.rtt_cycles));
  }

  detection::SignalObservation obs;
  obs.receiver_id = id();
  obs.sender_id = target;
  obs.receiver_position = position();
  obs.receiver_knows_position = true;
  obs.claimed_position = reply.claimed_position;
  obs.measured_distance_ft = m.distance_ft;
  obs.target_range_ft = ctx_.config.deployment.comm_range_ft;
  obs.observed_rtt_cycles = m.rtt_cycles;
  obs.via_wormhole = delivery.ctx.via_wormhole;
  obs.sender_faked_wormhole_indication = reply.fake_wormhole_indication;

  switch (ctx_.detector->evaluate(obs, rng_)) {
    case detection::ProbeOutcome::kConsistent:
      return;
    case detection::ProbeOutcome::kIgnoredWormholeReplay:
      ++ctx_.metrics.consistency_flags;
      ++ctx_.metrics.probe_ignored_wormhole;
      return;
    case detection::ProbeOutcome::kIgnoredLocalReplay:
      ++ctx_.metrics.consistency_flags;
      ++ctx_.metrics.probe_ignored_local_replay;
      return;
    case detection::ProbeOutcome::kAlert:
      ++ctx_.metrics.consistency_flags;
      // One alert per (reporter, target) pair.
      if (reported_.insert(target).second)
        ctx_.submit_alert(id(), target, /*collusion_alert=*/false);
      return;
    case detection::ProbeOutcome::kNoResponse:
      return;  // evaluate() never returns this; a probe with no reply is
               // given up in Requester::on_timeout
  }
}

// --- MaliciousBeaconNode --------------------------------------------------

MaliciousBeaconNode::MaliciousBeaconNode(sim::NodeId id, util::Vec2 position,
                                         double range_ft, SystemContext& ctx,
                                         attack::MaliciousBeaconStrategy strategy)
    : sim::Node(id, position, range_ft),
      ctx_(ctx),
      strategy_(std::move(strategy)),
      rng_(ctx.rng.fork(0xbad0000ULL + id)) {}

void MaliciousBeaconNode::on_message(const sim::Delivery& delivery) {
  if (delivery.msg.type != sim::MsgType::kBeaconRequest) return;
  // The requester ID is all the attacker sees — it cannot tell a detecting
  // ID from a real sensor ID, which is the crux of the scheme.
  answer_request(ctx_, *this, channel(), delivery.msg,
                 [&](std::uint64_t nonce) {
                   return strategy_.craft_reply(delivery.msg.src, nonce,
                                                position());
                 });
}

// --- SensorNode -----------------------------------------------------------

SensorNode::SensorNode(sim::NodeId id, util::Vec2 position, double range_ft,
                       SystemContext& ctx)
    : Requester(id, position, range_ft, ctx, kQueryRequests, 0x5e50000ULL),
      accepted_(&ctx.node_memory) {}

void SensorNode::set_query_targets(std::vector<sim::NodeId> targets) {
  query_targets_ = std::move(targets);
}

void SensorNode::start() { schedule_queries(); }

void SensorNode::schedule_queries() {
  // One query per target is in flight at a time, and each target yields
  // at most one reference, so both tables stay within these sizes.
  pending_.reserve(query_targets_.size());
  accepted_.reserve(query_targets_.size());
  schedule_timer_series(
      std::max(scheduler().now(), ctx_.config.sensor_phase_start),
      ctx_.config.transmission_stagger, query_targets_.size(),
      [this](std::size_t k) {
        send_request({.target = query_targets_[k], .from = id()},
                     /*is_retransmission=*/false);
      });
}

void SensorNode::on_crash(sim::SimTime) {
  // In-flight queries and accepted references are RAM-resident: a crash
  // forgets both, and localization has to start over.
  pending_.clear();
  accepted_.clear();
}

void SensorNode::on_reboot(sim::SimTime, sim::SimTime) {
  // Whether the reboot lands before or inside the sensor phase, the node
  // re-queries everything: the pre-crash query timers are epoch-fenced and
  // its accepted set was lost either way. (Before the phase this simply
  // re-registers the original schedule.)
  schedule_queries();
}

void SensorNode::on_message(const sim::Delivery& delivery) {
  if (delivery.msg.type != sim::MsgType::kBeaconReply) return;
  const auto answer = match_reply(delivery);
  if (!answer) return;
  const sim::NodeId target = answer->request.target;
  const sim::BeaconReplyPayload& reply = answer->reply;
  // A compromised beacon holds valid keys, so a correctly MACed reply can
  // claim a non-finite position, or manipulate its signal by an infinite
  // range (ranging then measures an infinite distance). Neither may become
  // a location reference or reach the residual histogram.
  if (!std::isfinite(reply.claimed_position.x) ||
      !std::isfinite(reply.claimed_position.y))
    return;
  const auto m = ctx_.measure(
      delivery, reply, position(), rng_,
      channel().faults().rtt_skew_cycles(id(), delivery.msg.src));
  if (!std::isfinite(m.distance_ft)) return;
  ++ctx_.metrics.sensor_replies;

  ctx_.rtt_query_hist->observe(m.rtt_cycles);
  ctx_.residual_hist->observe(m.distance_ft - m.physical_distance_ft);
  if (ctx_.tracer.on()) {
    ctx_.tracer.emit(ctx_.tracer.event("query.reply")
                         .f("node", id())
                         .f("target", target)
                         .f("nonce", reply.nonce)
                         .f("dist_ft", m.distance_ft)
                         .f("rtt_cycles", m.rtt_cycles));
  }

  detection::SignalObservation obs;
  obs.receiver_id = id();
  obs.sender_id = target;
  obs.receiver_knows_position = false;  // sensors don't know where they are
  obs.claimed_position = reply.claimed_position;
  obs.measured_distance_ft = m.distance_ft;
  obs.target_range_ft = ctx_.config.deployment.comm_range_ft;
  obs.observed_rtt_cycles = m.rtt_cycles;
  obs.via_wormhole = delivery.ctx.via_wormhole;
  obs.sender_faked_wormhole_indication = reply.fake_wormhole_indication;

  const auto verdict =
      ctx_.detector->replay_filter().evaluate_at_nonbeacon(obs, rng_);
  if (ctx_.tracer.on()) {
    const char* verdict_name = "genuine";
    if (verdict == detection::SignalVerdict::kWormholeReplay)
      verdict_name = "wormhole_replay";
    else if (verdict == detection::SignalVerdict::kLocalReplay)
      verdict_name = "local_replay";
    ctx_.tracer.emit(ctx_.tracer.event("query.verdict")
                         .f("node", id())
                         .f("target", target)
                         .f("verdict", verdict_name));
  }
  switch (verdict) {
    case detection::SignalVerdict::kWormholeReplay:
      ++ctx_.metrics.sensor_discarded_wormhole;
      return;
    case detection::SignalVerdict::kLocalReplay:
      ++ctx_.metrics.sensor_discarded_rtt;
      return;
    case detection::SignalVerdict::kGenuine:
      break;
  }

  AcceptedReference acc;
  acc.ref.beacon_id = target;
  acc.ref.beacon_position = reply.claimed_position;
  acc.ref.measured_distance_ft = m.distance_ft;
  const auto truth_it = ctx_.truth.find(target);
  if (truth_it != ctx_.truth.end() && truth_it->second.malicious) {
    const bool lied_location =
        util::distance(truth_it->second.true_position,
                       reply.claimed_position) > 1e-6;
    const bool manipulated_signal = reply.range_manipulation_ft != 0.0;
    acc.effective_malicious = lied_location || manipulated_signal;
  }
  if (ctx_.tracer.on()) {
    ctx_.tracer.emit(ctx_.tracer.event("query.accept")
                         .f("node", id())
                         .f("target", target)
                         .f("effective_malicious", acc.effective_malicious));
  }
  accepted_.push_back(std::move(acc));
}

void SensorNode::finalize() {
  const sim::SimTime now = scheduler().now();
  localization::LocationReferences& refs = ctx_.finalize_refs;
  refs.clear();
  for (const AcceptedReference& acc : accepted_) {
    if (ctx_.bs().is_revoked(acc.ref.beacon_id)) {
      ++ctx_.metrics.sensor_refs_dropped_revoked;
      if (ctx_.tracer.on()) {
        ctx_.tracer.emit(ctx_.tracer.event("sensor.drop_revoked")
                             .f("node", id())
                             .f("target", acc.ref.beacon_id));
      }
      continue;
    }
    // Quarantine reaches the sensors like a (reversible) revocation notice,
    // and they sequester the reference. is_quarantined short-circuits to
    // false while the lifecycle is disabled.
    if (ctx_.bs().is_quarantined(acc.ref.beacon_id, now)) {
      ++ctx_.metrics.sensor_refs_dropped_quarantined;
      if (ctx_.tracer.on()) {
        ctx_.tracer.emit(ctx_.tracer.event("sensor.drop_quarantined")
                             .f("node", id())
                             .f("target", acc.ref.beacon_id));
      }
      continue;
    }
    // A beacon counts once per sensor. Whether a reference is kept depends
    // only on its beacon, so an earlier effective-malicious reference from
    // the same beacon was kept and counted already.
    const auto same_liar = [&acc](const AcceptedReference& earlier) {
      return earlier.effective_malicious &&
             earlier.ref.beacon_id == acc.ref.beacon_id;
    };
    if (acc.effective_malicious &&
        std::none_of(std::as_const(accepted_).data(), &acc, same_liar))
      ++ctx_.metrics.affected_by_malicious[acc.ref.beacon_id];
    refs.push_back(acc.ref);
  }

  // A sensor that is down when the phase ends has nothing to localize
  // with: its accepted references died in the crash, so `refs` is empty.
  if (!is_down()) result_ = localization::localize(refs, ctx_.config.fallback);
  if (!result_) {
    ++ctx_.metrics.sensors_unlocalized;
    if (ctx_.tracer.on()) {
      ctx_.tracer.emit(ctx_.tracer.event("sensor.unlocalized")
                           .f("node", id())
                           .f("refs", static_cast<std::uint64_t>(refs.size())));
    }
    return;
  }
  ++ctx_.metrics.sensors_localized;
  const bool ladder = ctx_.config.fallback.enabled;
  if (ladder) {
    switch (result_->tier) {
      case localization::ConfidenceTier::kMultilateration:
        ++ctx_.metrics.sensors_tier_mlat;
        break;
      case localization::ConfidenceTier::kRobust:
        ++ctx_.metrics.sensors_tier_robust;
        break;
      case localization::ConfidenceTier::kCentroid:
        ++ctx_.metrics.sensors_tier_centroid;
        break;
    }
  }
  const double err_ft = util::distance(result_->position, position());
  ctx_.metrics.localization_error_ft.add(err_ft);
  ctx_.metrics.localization_errors_ft.push_back(err_ft);
  if (ctx_.tracer.on()) {
    obs::Event event = ctx_.tracer.event("sensor.localized");
    event.f("node", id())
        .f("err_ft", err_ft)
        .f("refs", static_cast<std::uint64_t>(refs.size()));
    if (ladder)
      event.f("tier", localization::confidence_tier_name(result_->tier));
    ctx_.tracer.emit(event);
  }
}

}  // namespace sld::core
