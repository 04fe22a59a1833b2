#include "sim/channel.hpp"

#include <stdexcept>
#include <utility>

#include "check/invariant.hpp"
#include "obs/memstats.hpp"
#include "sim/deployment.hpp"
#include "util/geometry.hpp"

namespace sld::sim {

namespace {
/// A real ID joins its dense run while its slot is below twice the number
/// of registered nodes plus this slack; a farther one goes to the map, so
/// a run stays O(nodes) long.
constexpr std::size_t kDenseSlack = 1024;

/// The dense run a real ID belongs to, and its slot there.
struct RunSlot {
  std::size_t run;
  std::size_t slot;
};
RunSlot run_slot(NodeId id) {
  if (is_beacon_id(id)) return {0, id};
  return {1, id - kNonBeaconIdBase};
}

const char* msg_type_name(MsgType type) {
  switch (type) {
    case MsgType::kBeaconRequest:
      return "request";
    case MsgType::kBeaconReply:
      return "reply";
    case MsgType::kAlertReport:
      return "alert";
    case MsgType::kRevocation:
      return "revocation";
    case MsgType::kAppData:
      return "app";
  }
  return "unknown";
}
}  // namespace

Channel::Channel(Scheduler& scheduler, ChannelConfig config, util::Rng rng)
    : scheduler_(scheduler),
      config_(std::move(config)),
      rng_(rng),
      // The injector gets its own forked stream so enabling faults never
      // perturbs the delivery-loss draws of the main stream (and a
      // disabled plan never draws at all).
      faults_(config_.faults, rng.fork(0xfa0175)) {
  if (!(config_.loss_probability >= 0.0 && config_.loss_probability <= 1.0))
    throw std::invalid_argument("Channel: loss probability outside [0, 1]");
}

void Channel::add_node(Node* node) {
  if (node == nullptr) throw std::invalid_argument("Channel::add_node: null");
  if (find(node->id()) != nullptr)
    throw std::invalid_argument("Channel::add_node: duplicate node id");
  const auto [run, slot] = run_slot(node->id());
  std::vector<Node*>& ids = id_runs_[run];
  if (slot < ids.size() || slot < kDenseSlack + 2 * radio_.size()) {
    if (slot >= ids.size()) ids.resize(slot + 1, nullptr);
    ids[slot] = node;
  } else {
    sparse_ids_.emplace(node->id(), node);
  }
  if (node->index() >= radio_.size()) radio_.resize(node->index() + 1);
}

void Channel::add_alias(NodeId alias, Node* node) {
  if (node == nullptr) throw std::invalid_argument("Channel::add_alias: null");
  if (find(alias) != nullptr)
    throw std::invalid_argument("Channel::add_alias: id already in use");
  sparse_ids_.emplace(alias, node);
}

void Channel::add_wormhole(WormholeLink link) {
  if (link.exit_range_ft <= 0.0)
    throw std::invalid_argument("Channel::add_wormhole: bad exit range");
  wormholes_.push_back(link);
}

void Channel::add_observer(RadioObserver* observer) {
  if (observer == nullptr)
    throw std::invalid_argument("Channel::add_observer: null");
  observers_.push_back(observer);
}

SimTime Channel::packet_airtime_ns(std::size_t payload_bytes) const {
  const double bits = static_cast<double>(
                          (payload_bytes + config_.frame_overhead_bytes) * 8);
  return static_cast<SimTime>(bits / kRadioBitsPerSecond * 1e9);
}

double Channel::packet_airtime_cycles(std::size_t payload_bytes) const {
  const double bits = static_cast<double>(
                          (payload_bytes + config_.frame_overhead_bytes) * 8);
  return bits * kCyclesPerBit;
}

bool Channel::direct_reach(const util::Vec2& from_pos, double from_range,
                           const Node& to) const {
  return util::distance_squared(from_pos, to.position()) <=
         from_range * from_range;
}

bool Channel::connected(const Node& a, const Node& b) const {
  if (direct_reach(a.position(), a.range(), b)) return true;
  for (const auto& w : wormholes_) {
    const bool a_to_mouth_a =
        util::distance_squared(a.position(), w.mouth_a) <=
        a.range() * a.range();
    const bool b_hears_mouth_b =
        util::distance_squared(w.mouth_b, b.position()) <=
        w.exit_range_ft * w.exit_range_ft;
    if (a_to_mouth_a && b_hears_mouth_b) return true;
    const bool a_to_mouth_b =
        util::distance_squared(a.position(), w.mouth_b) <=
        a.range() * a.range();
    const bool b_hears_mouth_a =
        util::distance_squared(w.mouth_a, b.position()) <=
        w.exit_range_ft * w.exit_range_ft;
    if (a_to_mouth_b && b_hears_mouth_a) return true;
  }
  return false;
}

Node* Channel::find(NodeId id) const {
  const auto [run, slot] = run_slot(id);
  const std::vector<Node*>& ids = id_runs_[run];
  if (slot < ids.size() && ids[slot] != nullptr) return ids[slot];
  const auto it = sparse_ids_.find(id);
  return it == sparse_ids_.end() ? nullptr : it->second;
}

void Channel::unicast(const Node& sender, Message msg) {
  SLD_MEM_SCOPE("channel");
  if (find(sender.id()) != &sender)
    throw std::logic_error("Channel::unicast: sender is not registered");
  // A crashed node does not transmit at all.
  if (faults_.enabled() &&
      faults_.node_crashed(sender.id(), scheduler_.now())) {
    ++stats_.crashed_drops;
    ++stats_.crashed_tx_drops;
    if (trace_.on())
      trace_.emit(trace_.event("pkt.crash_tx").f("node", sender.id()));
    return;
  }
  if (trace_.on()) {
    trace_.emit(trace_.event("pkt.send")
                    .f("node", sender.id())
                    .f("src", msg.src)
                    .f("dst", msg.dst)
                    .f("type", msg_type_name(msg.type))
                    .f("bytes", static_cast<std::uint64_t>(
                                    msg.payload.size() +
                                    config_.frame_overhead_bytes)));
  }
  TxContext ctx;
  ctx.radiating_position = sender.position();
  ctx.radiating_range = sender.range();
  NodeRadioStats& radio = radio_[sender.index()];
  ++radio.packets_sent;
  radio.bytes_sent += msg.payload.size() + config_.frame_overhead_bytes;
  transmit(ctx, msg);
}

NodeRadioStats Channel::node_radio(NodeId id) const {
  const Node* node = find(id);
  if (node == nullptr || node->id() != id) return {};
  return radio_[node->index()];
}

NodeRadioStats Channel::total_radio() const {
  NodeRadioStats total;
  for (const NodeRadioStats& r : radio_) {
    total.packets_sent += r.packets_sent;
    total.packets_received += r.packets_received;
    total.bytes_sent += r.bytes_sent;
    total.bytes_received += r.bytes_received;
  }
  return total;
}

void Channel::inject(const TxContext& ctx, Message msg) {
  if (ctx.radiating_range <= 0.0)
    throw std::invalid_argument("Channel::inject: bad radiating range");
  transmit(ctx, msg);
}

void Channel::transmit(const TxContext& ctx, const Message& msg) {
  SLD_MEM_SCOPE("channel");
  ++stats_.transmissions;

  // Nodes examined by this transmission's scan: every observer plus the
  // wormhole mouths tested. Noted exactly once per transmit.
  std::uint64_t scanned = 0;
  const auto note_scan = [&]() {
    stats_.scan_nodes += scanned;
    if (hot_ != nullptr && hot_->scan_fanout != nullptr)
      hot_->scan_fanout->observe(static_cast<double>(scanned));
  };

  // Eavesdroppers / jammers hear everything radiating within range.
  bool suppressed = false;
  for (auto* obs : observers_) {
    const double d2 =
        util::distance_squared(ctx.radiating_position, obs->observer_position());
    ++scanned;
    if (d2 <= ctx.radiating_range * ctx.radiating_range) {
      suppressed = obs->on_overhear(msg, ctx) || suppressed;
    }
  }
  if (suppressed) {
    ++stats_.suppressed;
    note_scan();
    if (trace_.on())
      trace_.emit(trace_.event("pkt.suppressed")
                      .f("src", msg.src)
                      .f("dst", msg.dst));
    return;
  }

  Node* dst = find(msg.dst);

  // Direct path.
  if (dst != nullptr &&
      direct_reach(ctx.radiating_position, ctx.radiating_range, *dst)) {
    deliver(*dst, ctx, msg);
  } else if (dst != nullptr) {
    ++stats_.out_of_range;
    if (trace_.on())
      trace_.emit(trace_.event("pkt.out_of_range")
                      .f("src", msg.src)
                      .f("dst", msg.dst));
  }

  // Wormhole paths: any tunnel mouth within the radiating range picks the
  // signal up and re-radiates it at the opposite mouth. A copy that already
  // crossed a tunnel is not tunnelled again (no cascading).
  if (ctx.via_wormhole || dst == nullptr) {
    note_scan();
    return;
  }
  for (const auto& w : wormholes_) {
    struct Hop {
      const util::Vec2& in;
      const util::Vec2& out;
    };
    const Hop hops[2] = {{w.mouth_a, w.mouth_b}, {w.mouth_b, w.mouth_a}};
    for (const auto& hop : hops) {
      const double d2_in =
          util::distance_squared(ctx.radiating_position, hop.in);
      ++scanned;
      if (d2_in > ctx.radiating_range * ctx.radiating_range) continue;
      TxContext tunneled;
      tunneled.radiating_position = hop.out;
      tunneled.radiating_range = w.exit_range_ft;
      tunneled.extra_delay_cycles =
          ctx.extra_delay_cycles + w.extra_delay_cycles;
      tunneled.via_wormhole = true;
      tunneled.is_replay = true;
      if (direct_reach(hop.out, w.exit_range_ft, *dst)) {
        deliver(*dst, tunneled, msg);
      }
    }
  }
  note_scan();
}

void Channel::deliver(Node& dst, const TxContext& ctx, const Message& msg) {
  ++stats_.delivery_attempts;
  if (rng_.bernoulli(config_.loss_probability)) {
    ++stats_.losses;
    check_conservation();
    if (trace_.on())
      trace_.emit(
          trace_.event("pkt.loss").f("src", msg.src).f("dst", msg.dst));
    return;
  }
  const double prop_ft =
      util::distance(ctx.radiating_position, dst.position());
  SimTime delay =
      packet_airtime_ns(msg.payload.size()) +
      static_cast<SimTime>(prop_ft / kSpeedOfLightFtPerSec * 1e9) +
      cycles_to_ns(ctx.extra_delay_cycles);

  if (!faults_.enabled()) {
    schedule_delivery(dst, ctx, msg, delay);
    check_conservation();
    return;
  }

  // A crashed receiver hears nothing. Windows are static, so the check can
  // run against the (deterministic) arrival time up front.
  if (faults_.node_crashed(dst.id(), scheduler_.now() + delay)) {
    ++stats_.crashed_drops;
    ++stats_.crashed_rx_drops;
    check_conservation();
    if (trace_.on())
      trace_.emit(trace_.event("pkt.crash_rx").f("node", dst.id()));
    return;
  }
  // Partition cuts are static time windows over physical node sets, so the
  // check runs against the deterministic arrival time and draws nothing.
  if (!faults_.plan().partitions.empty()) {
    const Node* src_node = find(msg.src);  // resolve aliases
    const NodeId src_phys = src_node != nullptr ? src_node->id() : msg.src;
    if (faults_.partition_blocked(src_phys, dst.id(),
                                  scheduler_.now() + delay)) {
      ++stats_.partition_drops;
      check_conservation();
      if (trace_.on())
        trace_.emit(trace_.event("pkt.partition_drop")
                        .f("src", msg.src)
                        .f("dst", msg.dst));
      return;
    }
  }
  auto fate = faults_.decide(msg.src, dst.id());
  if (fate.dropped) {
    ++stats_.dropped_by_fault;
    check_conservation();
    if (trace_.on())
      trace_.emit(trace_.event("pkt.fault_drop")
                      .f("src", msg.src)
                      .f("dst", msg.dst));
    return;
  }
  delay += fate.extra_delay_ns;
  if (fate.corrupted) {
    // The primary copy arrives damaged; MAC verification at the receiver
    // rejects it. A duplicate (below) is an independent clean copy.
    ++stats_.corrupted;
    if (trace_.on())
      trace_.emit(trace_.event("pkt.corrupt")
                      .f("src", msg.src)
                      .f("dst", msg.dst));
    Message damaged = msg;
    faults_.corrupt(damaged);
    schedule_delivery(dst, ctx, damaged, delay);
  } else {
    schedule_delivery(dst, ctx, msg, delay);
  }
  if (fate.duplicated) {
    ++stats_.duplicates;
    if (trace_.on())
      trace_.emit(trace_.event("pkt.duplicate")
                      .f("src", msg.src)
                      .f("dst", msg.dst));
    // The duplicate trails one packet air time behind the original.
    schedule_delivery(dst, ctx, msg,
                      delay + packet_airtime_ns(msg.payload.size()));
  }
  check_conservation();
}

void Channel::check_conservation() const {
  SLD_INVARIANT(stats_.deliveries + stats_.losses + stats_.dropped_by_fault +
                        stats_.crashed_rx_drops + stats_.partition_drops ==
                    stats_.delivery_attempts + stats_.duplicates,
                "packet conservation: deliveries=" << stats_.deliveries
                    << " losses=" << stats_.losses << " fault_drops="
                    << stats_.dropped_by_fault << " crashed_rx="
                    << stats_.crashed_rx_drops << " partition="
                    << stats_.partition_drops << " attempts="
                    << stats_.delivery_attempts << " duplicates="
                    << stats_.duplicates);
  SLD_INVARIANT(stats_.crashed_drops ==
                    stats_.crashed_tx_drops + stats_.crashed_rx_drops,
                "crash accounting: total=" << stats_.crashed_drops
                    << " tx=" << stats_.crashed_tx_drops
                    << " rx=" << stats_.crashed_rx_drops);
}

void Channel::schedule_delivery(Node& dst, const TxContext& ctx,
                                const Message& msg, SimTime delay) {
  ++stats_.deliveries;
  if (ctx.via_wormhole) ++stats_.wormhole_deliveries;
  if (hot_ != nullptr && hot_->packet_lifetime_ns != nullptr)
    hot_->packet_lifetime_ns->observe(static_cast<double>(delay));
  if (trace_.on()) {
    trace_.emit(trace_.event("pkt.deliver")
                    .f("src", msg.src)
                    .f("dst", msg.dst)
                    .f("type", msg_type_name(msg.type))
                    .f("wormhole", ctx.via_wormhole)
                    .f("delay_ns", static_cast<std::int64_t>(delay)));
  }
  NodeRadioStats& radio = radio_[dst.index()];
  ++radio.packets_received;
  radio.bytes_received += msg.payload.size() + config_.frame_overhead_bytes;
  const std::uint32_t slot = in_flight_.acquire();
  InFlight& f = in_flight_[slot];
  f.dst = &dst;
  f.delivery.msg = msg;
  f.delivery.ctx = ctx;
  scheduler_.schedule_after(delay, [this, slot]() { complete_delivery(slot); });
}

void Channel::complete_delivery(std::uint32_t slot) {
  InFlight& f = in_flight_[slot];
  f.delivery.rx_time = scheduler_.now();
  f.dst->on_message(f.delivery);
  in_flight_.release(slot);
}

}  // namespace sld::sim
