// Composable fault injection for the radio channel.
//
// The paper assumes "reliable delivery via retransmission"; a FaultPlan
// removes that assumption in a controlled, deterministic way so the
// detection/revocation suite can be evaluated under realistic channel
// conditions: i.i.d. and bursty (Gilbert-Elliott) packet loss, duplication,
// payload corruption (which MAC verification must catch), delay jitter,
// and scheduled node crash/reboot windows.
//
// A default-constructed FaultPlan injects nothing AND draws nothing from
// the fault RNG stream, so experiments with faults disabled reproduce the
// fault-free event sequence bit-for-bit.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/message.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace sld::sim {

/// Two-state Gilbert-Elliott loss chain, evolved per link and per packet.
/// The stationary loss rate is
///   p_bad_stationary * loss_bad + (1 - p_bad_stationary) * loss_good
/// with p_bad_stationary = p_enter_bad / (p_enter_bad + p_exit_bad), and
/// the mean burst length is 1 / p_exit_bad packets.
struct GilbertElliottConfig {
  /// Per-packet probability of entering the bad (lossy) state. Zero keeps
  /// the chain disabled.
  double p_enter_bad = 0.0;
  /// Per-packet probability of leaving the bad state (1 / mean burst len).
  double p_exit_bad = 0.25;
  /// Loss probability while in the good state.
  double loss_good = 0.0;
  /// Loss probability while in the bad state.
  double loss_bad = 1.0;

  bool enabled() const { return p_enter_bad > 0.0; }

  /// Parameters hitting `target_loss` average loss with `mean_burst_len`
  /// consecutive drops per burst (loss_good = 0, loss_bad = 1).
  static GilbertElliottConfig for_average_loss(double target_loss,
                                               double mean_burst_len);
};

/// A node is offline (neither sends nor receives) during [start, end).
/// On reboot at `end` the node has lost its volatile state: Network
/// schedules crash/reboot transitions that run the node's on_crash and
/// on_reboot hooks, and Node-owned timers scheduled before the window
/// never fire.
struct CrashWindow {
  NodeId node = 0;
  SimTime start = 0;
  SimTime end = 0;
};

/// Deterministic per-node clock rate error. Each node runs its local clock
/// at (1 + rate_ppm(node) * 1e-6) times real rate, with rate_ppm(node)
/// drawn from [-max_drift_ppm, +max_drift_ppm] by hashing the node id, so
/// the assignment is independent of call order and of every other RNG
/// stream. The dominant effect on an RTT measurement is the responder's
/// turnaround (t3 - t2) being timed by two different clocks:
///   skew_cycles = (rate_rx - rate_tx) * 1e-6 * turnaround_cycles.
struct ClockDriftConfig {
  /// Maximum absolute clock rate error, parts per million. Zero disables.
  double max_drift_ppm = 0.0;
  /// Modeled responder turnaround (t3 - t2) in CPU cycles. Default is
  /// ~20 ms at 7.3728 MHz — MAC backoff plus processing on a mote.
  double turnaround_cycles = 147'456.0;

  bool enabled() const { return max_drift_ppm > 0.0; }
};

/// The network is bipartitioned during [start, end): deliveries crossing
/// the (side_a | everyone else) cut are dropped at their arrival time;
/// deliveries within one side are unaffected. Node ids are physical ids
/// (the Channel resolves aliases before checking).
struct PartitionWindow {
  std::vector<NodeId> side_a;
  SimTime start = 0;
  SimTime end = 0;
};

struct FaultPlan {
  /// i.i.d. per-delivery loss probability, applied to every link.
  double loss_probability = 0.0;
  /// Bursty loss on top of (or instead of) the i.i.d. term.
  GilbertElliottConfig burst;
  /// Probability a delivered packet arrives twice (the duplicate trails
  /// one packet air time behind the original).
  double duplicate_probability = 0.0;
  /// Probability the delivered payload has bytes flipped in flight; the
  /// receiver's MAC verification is expected to reject such packets.
  double corruption_probability = 0.0;
  /// Extra uniform [0, max_extra_delay_ns) delivery delay ("jitter").
  SimTime max_extra_delay_ns = 0;
  /// Additional loss probability for deliveries *to* specific nodes
  /// (models a node with a weak/occluded radio).
  std::unordered_map<NodeId, double> node_loss;
  /// Additional loss probability for specific (src, dst) links.
  /// Keys are packed with link_key().
  std::unordered_map<std::uint64_t, double> link_loss;
  /// Scheduled crash/reboot windows.
  std::vector<CrashWindow> crashes;
  /// Per-node clock rate error feeding RTT / time-sync measurements.
  ClockDriftConfig clock_drift;
  /// Scheduled network bipartitions.
  std::vector<PartitionWindow> partitions;

  static std::uint64_t link_key(NodeId src, NodeId dst) {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
  }

  /// True if any fault source can fire. False guarantees the injector
  /// never draws randomness and never perturbs deliveries.
  bool any_enabled() const;
};

/// Decides the fate of individual deliveries according to a FaultPlan.
/// Owned by the Channel; all randomness comes from its private RNG stream,
/// which is only consumed when the corresponding fault is enabled.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, util::Rng rng);

  const FaultPlan& plan() const { return plan_; }
  bool enabled() const { return enabled_; }

  /// True if `node` is inside one of its crash windows at time `t`.
  bool node_crashed(NodeId node, SimTime t) const;

  /// True if a (src -> dst) delivery crosses an active partition cut at
  /// time `t`. Pure time/set lookup; draws no randomness.
  bool partition_blocked(NodeId src, NodeId dst, SimTime t) const;

  /// `node`'s fixed clock rate error in ppm (zero when drift is disabled).
  double drift_ppm(NodeId node) const;

  /// Drift-induced skew of an RTT measured by `receiver` against
  /// `sender`'s responder turnaround, in CPU cycles. Signed.
  double rtt_skew_cycles(NodeId receiver, NodeId sender) const;

  /// What happens to one (src -> dst) delivery. Draws only for faults the
  /// plan enables; evolves the link's Gilbert-Elliott chain as a side
  /// effect.
  struct DeliveryFate {
    bool dropped = false;
    bool duplicated = false;
    bool corrupted = false;
    SimTime extra_delay_ns = 0;
  };
  DeliveryFate decide(NodeId src, NodeId dst);

  /// Flips at least one bit of `msg` (payload byte, or the MAC tag for an
  /// empty payload) so authentication must fail at the receiver.
  void corrupt(Message& msg);

 private:
  bool link_lost(NodeId src, NodeId dst);

  FaultPlan plan_;
  util::Rng rng_;
  bool enabled_ = false;
  /// Seed for the per-node drift hash; derived once from a fork of the
  /// injector RNG so drift assignments never consume the decide() stream.
  std::uint64_t drift_seed_ = 0;
  /// Gilbert-Elliott state per link: present and true => in the bad state.
  std::unordered_map<std::uint64_t, bool> link_in_bad_;
  /// plan_.partitions[i].side_a as a set, for O(1) membership checks.
  std::vector<std::unordered_set<NodeId>> partition_sides_;
};

}  // namespace sld::sim
