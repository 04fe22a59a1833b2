// The radio channel: range-limited unicast with transmission + propagation
// delay, optional loss, wormhole tunnels, and eavesdropping hooks.
//
// Wormholes are modelled at the channel level, matching the paper's §4
// setup ("a wormhole ... which forwards every message received at one side
// immediately to the other side"): a transmission whose radiating position
// reaches one tunnel mouth is re-radiated at the other mouth. Deliveries
// arriving through a tunnel carry `via_wormhole = true` ground truth and
// the tunnel's extra delay; RSSI ranging on such a delivery measures the
// distance to the *exit mouth*, which is precisely why the paper's
// consistency check catches wormhole-replayed beacons.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"
#include "sim/faults.hpp"
#include "sim/message.hpp"
#include "sim/node.hpp"
#include "sim/scheduler.hpp"
#include "sim/slot_pool.hpp"
#include "util/rng.hpp"

namespace sld::sim {

/// Devices (typically attackers) that can hear transmissions near them.
class RadioObserver {
 public:
  virtual ~RadioObserver() = default;

  /// Called for every transmission radiating within range of the observer.
  /// Returning true suppresses delivery to the intended receiver (models
  /// shield-and-replay / jamming); returning false leaves it untouched.
  virtual bool on_overhear(const Message& msg, const TxContext& ctx) = 0;

  /// Where the observer's radio hardware sits.
  virtual util::Vec2 observer_position() const = 0;
};

/// A wormhole tunnel between two field positions.
struct WormholeLink {
  util::Vec2 mouth_a;
  util::Vec2 mouth_b;
  /// Re-transmission range at the exit mouth, in feet.
  double exit_range_ft = 0.0;
  /// Latency the tunnel adds, in CPU cycles ("low latency link"; the
  /// paper's simulated wormhole forwards immediately, so default 0).
  double extra_delay_cycles = 0.0;
};

struct ChannelConfig {
  /// Per-delivery loss probability (paper assumes reliable delivery via
  /// retransmission, so default 0). Kept separate from `faults` for
  /// backward compatibility; both contribute independently.
  double loss_probability = 0.0;
  /// Fixed per-packet framing overhead in bytes (preamble/header/CRC).
  std::size_t frame_overhead_bytes = 16;
  /// Composable fault injection (loss models, duplication, corruption,
  /// jitter, crash windows). All off by default.
  FaultPlan faults;
};

/// Counters exposed for tests and experiment reporting. Every delivery
/// attempt is conserved: it is lost, dropped by a fault, dropped at a
/// crashed receiver, or delivered — and a duplication fault adds one extra
/// delivery. So
///
///   deliveries + losses + dropped_by_fault + crashed_rx_drops
///       + partition_drops
///     == delivery_attempts + duplicates
///
/// always, which `SLD_INVARIANT` asserts after every attempt in
/// invariant-enabled builds and the property suite asserts on the public
/// stats.
struct ChannelStats {
  std::uint64_t transmissions = 0;
  /// Reachable (src, dst) delivery attempts, direct or through a wormhole.
  std::uint64_t delivery_attempts = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t wormhole_deliveries = 0;
  std::uint64_t losses = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t out_of_range = 0;
  // Fault-injection outcomes (all zero when ChannelConfig::faults is off).
  std::uint64_t dropped_by_fault = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t corrupted = 0;
  /// crashed_drops = crashed_tx_drops + crashed_rx_drops (kept as the
  /// combined total for existing consumers).
  std::uint64_t crashed_drops = 0;
  std::uint64_t crashed_tx_drops = 0;
  std::uint64_t crashed_rx_drops = 0;
  /// Deliveries dropped because they crossed an active partition cut.
  std::uint64_t partition_drops = 0;
  /// Nodes examined across all transmissions: every observer plus the
  /// wormhole mouths tested (the scan fan-out numerator).
  std::uint64_t scan_nodes = 0;
};

/// Per-node radio activity, the basis of energy accounting (tx and rx are
/// the dominant energy consumers on a mote).
struct NodeRadioStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;

  /// Energy estimate with CC1000-class costs (~ 0.080 uJ/bit tx at 0 dBm,
  /// ~ 0.038 uJ/bit rx), in microjoules.
  double energy_uj(double tx_uj_per_byte = 0.64,
                   double rx_uj_per_byte = 0.30) const {
    return static_cast<double>(bytes_sent) * tx_uj_per_byte +
           static_cast<double>(bytes_received) * rx_uj_per_byte;
  }
};

class Channel {
 public:
  Channel(Scheduler& scheduler, ChannelConfig config, util::Rng rng);

  /// Registers a node (non-owning; the Network owns nodes). Its radio
  /// activity is kept by its registration index (Node::index).
  void add_node(Node* node);

  /// Registers an extra address for an already-registered node. Used for
  /// detecting IDs: packets sent to the alias are delivered to the owning
  /// node, whose radio hardware is the same.
  void add_alias(NodeId alias, Node* node);

  void add_wormhole(WormholeLink link);
  const std::vector<WormholeLink>& wormholes() const { return wormholes_; }

  void add_observer(RadioObserver* observer);

  /// Sends `msg` from `sender` using the sender's true position/range.
  /// The message is delivered directly if the destination is in range and
  /// additionally through every wormhole whose mouths connect them. Throws
  /// std::logic_error if `sender` is not registered on this channel.
  void unicast(const Node& sender, Message msg);

  /// Injects a transmission with an arbitrary physical context — used by
  /// attacker devices replaying captured packets.
  void inject(const TxContext& ctx, Message msg);

  /// True if `to` can hear a transmission radiating from `from_pos` with
  /// range `from_range` directly (no wormhole).
  bool direct_reach(const util::Vec2& from_pos, double from_range,
                    const Node& to) const;

  /// True if a transmission from `a` reaches `b` directly or via a tunnel.
  bool connected(const Node& a, const Node& b) const;

  /// The node registered under `id`, or the owner of the alias `id`;
  /// nullptr if neither.
  Node* find(NodeId id) const;

  const ChannelStats& stats() const { return stats_; }

  /// The channel's fault injector (crash queries, plan introspection).
  const FaultInjector& faults() const { return faults_; }

  /// Radio activity of one node (zeros for unknown ids and for aliases,
  /// whose traffic is their owner's).
  NodeRadioStats node_radio(NodeId id) const;

  /// Installs the event tracer (off by default). Emits one record per
  /// packet fate: pkt.send / pkt.deliver / pkt.loss / pkt.out_of_range /
  /// pkt.suppressed / pkt.fault_drop / pkt.duplicate / pkt.corrupt /
  /// pkt.crash_tx / pkt.crash_rx / pkt.partition_drop.
  void set_tracer(obs::Tracer tracer) { trace_ = std::move(tracer); }

  /// The installed tracer (off by default). Nodes and the Network borrow
  /// it for lifecycle events (node.reboot, partition.start/heal).
  const obs::Tracer& tracer() const { return trace_; }

  /// Radio activity summed over every node — the basis of whole-network
  /// energy accounting (e.g. the energy overhead of retransmissions).
  NodeRadioStats total_radio() const;

  /// Air time of a `payload_bytes`-byte packet, in nanoseconds.
  SimTime packet_airtime_ns(std::size_t payload_bytes) const;

  /// Air time of a `payload_bytes`-byte packet, in CPU cycles (the unit
  /// replay-delay reasoning uses).
  double packet_airtime_cycles(std::size_t payload_bytes) const;

  /// Optional hot-path micro-counter sink (scan fan-out, packet lifetime;
  /// see sim/hotstats.hpp). Not owned; nullptr turns recording back off.
  void set_hot_stats(HotStats* hot) { hot_ = hot; }

 private:
  void transmit(const TxContext& ctx, const Message& msg);
  void deliver(Node& dst, const TxContext& ctx, const Message& msg);
  void schedule_delivery(Node& dst, const TxContext& ctx, const Message& msg,
                         SimTime delay);
  /// Hands the in-flight delivery in `slot` to its receiver, then frees
  /// the slot.
  void complete_delivery(std::uint32_t slot);
  /// Asserts the ChannelStats conservation law (no-op in Release builds).
  void check_conservation() const;

  Scheduler& scheduler_;
  ChannelConfig config_;
  util::Rng rng_;
  FaultInjector faults_;
  /// Registered nodes by ID. Deployments number beacons from
  /// kFirstBeaconId and sensors from kNonBeaconIdBase, consecutively, so a
  /// real ID indexes one of two dense runs: id_runs_[0] by the ID itself
  /// for beacon-range IDs, id_runs_[1] by ID - kNonBeaconIdBase for the
  /// rest. Detecting-ID aliases, drawn at random from [2^20, 2^31), live in
  /// sparse_ids_, with any real ID too far from its run to index without
  /// wasting memory.
  std::vector<Node*> id_runs_[2];
  std::unordered_map<NodeId, Node*> sparse_ids_;
  std::vector<WormholeLink> wormholes_;
  std::vector<RadioObserver*> observers_;
  ChannelStats stats_;
  /// Radio activity by registration index.
  std::vector<NodeRadioStats> radio_;
  /// A scheduled delivery waiting for its arrival time.
  struct InFlight {
    Node* dst = nullptr;
    Delivery delivery;
  };
  /// Scheduled deliveries. The scheduler holds only a [this, slot]
  /// closure; the receiver reads the Delivery where it lies, so a handler
  /// that sends (acquiring slots) never disturbs the copy it is reading.
  SlotPool<InFlight> in_flight_;
  obs::Tracer trace_;
  HotStats* hot_ = nullptr;
};

}  // namespace sld::sim
