#include "sim/channel.hpp"

#include <cmath>
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
      // A disabled plan never draws at all.
      faults_(config_.faults, rng.fork(0xfa0175)) {}

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
  // NaN-proof: a NaN mouth or range would silently cut the tunnel, and a
  // NaN or negative delay would reach the scheduler as a time in the past.
  const auto finite = [](const util::Vec2& p) {
    return std::isfinite(p.x) && std::isfinite(p.y);
  };
  if (!finite(link.mouth_a))
    throw std::invalid_argument("Channel::add_wormhole: mouth_a not finite");
  if (!finite(link.mouth_b))
    throw std::invalid_argument("Channel::add_wormhole: mouth_b not finite");
  if (!(link.exit_range_ft > 0.0 && std::isfinite(link.exit_range_ft)))
    throw std::invalid_argument(
        "Channel::add_wormhole: exit_range_ft must be finite and positive");
  // 2^63 ns is the first double past SimTime's range (the cast is
  // undefined there), so this bound also rejects infinity.
  if (!(link.extra_delay_cycles >= 0.0 &&
        link.extra_delay_cycles / kCpuHz * 1e9 < 0x1p63))
    throw std::invalid_argument(
        "Channel::add_wormhole: extra_delay_cycles must be non-negative and "
        "fit SimTime");
  wormholes_.push_back(link);
}

SimTime Channel::packet_airtime_ns(std::size_t payload_bytes) const {
  const double bits = static_cast<double>(
                          (payload_bytes + config_.frame_overhead_bytes) * 8);
  return static_cast<SimTime>(bits / kRadioBitsPerSecond * 1e9);
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
  NodeRadioStats& radio = radio_[sender.index()];
  ++radio.packets_sent;
  radio.bytes_sent += msg.payload.size() + config_.frame_overhead_bytes;
  ++stats_.transmissions;

  TxContext ctx;
  ctx.radiating_position = sender.position();
  ctx.radiating_range = sender.range();
  const double range2 = ctx.radiating_range * ctx.radiating_range;
  Node* dst = find(msg.dst);
  // Wormhole mouths this transmission's scan examined, noted once below.
  std::uint64_t scanned = 0;
  if (dst != nullptr) {
    // Direct path.
    if (direct_reach(ctx.radiating_position, ctx.radiating_range, *dst)) {
      deliver(*dst, ctx, msg);
    } else {
      ++stats_.out_of_range;
      if (trace_.on())
        trace_.emit(trace_.event("pkt.out_of_range")
                        .f("src", msg.src)
                        .f("dst", msg.dst));
    }
    // Wormhole paths: any tunnel mouth within the radiating range picks
    // the signal up and re-radiates it at the opposite mouth.
    for (const auto& w : wormholes_) {
      struct Hop {
        const util::Vec2& in;
        const util::Vec2& out;
      };
      const Hop hops[2] = {{w.mouth_a, w.mouth_b}, {w.mouth_b, w.mouth_a}};
      for (const auto& hop : hops) {
        ++scanned;
        if (util::distance_squared(ctx.radiating_position, hop.in) > range2)
          continue;
        TxContext tunneled;
        tunneled.radiating_position = hop.out;
        tunneled.radiating_range = w.exit_range_ft;
        tunneled.extra_delay_cycles = w.extra_delay_cycles;
        tunneled.via_wormhole = true;
        if (direct_reach(hop.out, w.exit_range_ft, *dst))
          deliver(*dst, tunneled, msg);
      }
    }
  }
  stats_.scan_nodes += scanned;
  if (hot_ != nullptr && hot_->scan_fanout != nullptr)
    hot_->scan_fanout->observe(static_cast<double>(scanned));
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

void Channel::deliver(Node& dst, const TxContext& ctx, const Message& msg) {
  ++stats_.delivery_attempts;
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
  SLD_INVARIANT(stats_.deliveries + stats_.dropped_by_fault +
                        stats_.crashed_rx_drops + stats_.partition_drops ==
                    stats_.delivery_attempts + stats_.duplicates,
                "packet conservation: deliveries=" << stats_.deliveries
                    << " fault_drops=" << stats_.dropped_by_fault
                    << " crashed_rx=" << stats_.crashed_rx_drops
                    << " partition=" << stats_.partition_drops
                    << " attempts=" << stats_.delivery_attempts
                    << " duplicates=" << stats_.duplicates);
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
