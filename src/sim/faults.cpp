#include "sim/faults.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace sld::sim {

GilbertElliottConfig GilbertElliottConfig::for_average_loss(
    double target_loss, double mean_burst_len) {
  if (!(target_loss >= 0.0 && target_loss < 1.0))
    throw std::invalid_argument("GilbertElliott: target loss outside [0, 1)");
  if (!(mean_burst_len >= 1.0 && std::isfinite(mean_burst_len)))
    throw std::invalid_argument("GilbertElliott: burst length < 1 or infinite");
  GilbertElliottConfig ge;
  ge.loss_good = 0.0;
  ge.loss_bad = 1.0;
  ge.p_exit_bad = 1.0 / mean_burst_len;
  // Stationary P(bad) must equal target_loss:
  //   p_enter / (p_enter + p_exit) = target  =>  p_enter = p_exit * t/(1-t).
  ge.p_enter_bad = ge.p_exit_bad * target_loss / (1.0 - target_loss);
  // Bursts this short cannot reach a loss this high: t/(1-t) > burst len.
  if (ge.p_enter_bad > 1.0)
    throw std::invalid_argument(
        "GilbertElliott: target loss unreachable with this burst length");
  return ge;
}

bool FaultPlan::any_enabled() const {
  return loss_probability > 0.0 || burst.enabled() ||
         duplicate_probability > 0.0 || corruption_probability > 0.0 ||
         max_extra_delay_ns > 0 || !node_loss.empty() || !link_loss.empty() ||
         !crashes.empty() || clock_drift.enabled() || !partitions.empty();
}

FaultInjector::FaultInjector(FaultPlan plan, util::Rng rng)
    : plan_(std::move(plan)), rng_(rng), enabled_(plan_.any_enabled()) {
  auto check_p = [](double p, const char* what) {
    if (!(p >= 0.0 && p <= 1.0))
      throw std::invalid_argument(std::string("FaultPlan: ") + what +
                                  " outside [0, 1]");
  };
  check_p(plan_.loss_probability, "loss probability");
  check_p(plan_.duplicate_probability, "duplicate probability");
  check_p(plan_.corruption_probability, "corruption probability");
  check_p(plan_.burst.p_enter_bad, "burst enter probability");
  check_p(plan_.burst.p_exit_bad, "burst exit probability");
  check_p(plan_.burst.loss_good, "burst good-state loss");
  check_p(plan_.burst.loss_bad, "burst bad-state loss");
  for (const auto& [node, p] : plan_.node_loss) check_p(p, "node loss");
  for (const auto& [link, p] : plan_.link_loss) check_p(p, "link loss");
  // A window's transitions are scheduled when the trial starts, at 0.
  for (const auto& w : plan_.crashes) {
    if (w.start < 0)
      throw std::invalid_argument("FaultPlan: crash window starts before 0");
    if (w.end <= w.start)
      throw std::invalid_argument("FaultPlan: empty crash window");
  }
  if (!(plan_.clock_drift.max_drift_ppm >= 0.0 &&
        std::isfinite(plan_.clock_drift.max_drift_ppm)))
    throw std::invalid_argument(
        "FaultPlan: clock drift negative or not finite");
  if (plan_.clock_drift.enabled() &&
      !(plan_.clock_drift.turnaround_cycles > 0.0))
    throw std::invalid_argument("FaultPlan: non-positive drift turnaround");
  partition_sides_.reserve(plan_.partitions.size());
  for (const auto& p : plan_.partitions) {
    if (p.start < 0)
      throw std::invalid_argument(
          "FaultPlan: partition window starts before 0");
    if (p.end <= p.start)
      throw std::invalid_argument("FaultPlan: empty partition window");
    if (p.side_a.empty())
      throw std::invalid_argument("FaultPlan: partition with empty side");
    partition_sides_.emplace_back(p.side_a.begin(), p.side_a.end());
  }
  // One draw from a child stream, so per-node drift rates are reproducible
  // without ever touching the decide() stream.
  drift_seed_ = rng_.fork(0xd21f7ULL)();
}

bool FaultInjector::node_crashed(NodeId node, SimTime t) const {
  for (const auto& w : plan_.crashes) {
    if (w.node == node && t >= w.start && t < w.end) return true;
  }
  return false;
}

bool FaultInjector::partition_blocked(NodeId src, NodeId dst,
                                      SimTime t) const {
  for (std::size_t i = 0; i < partition_sides_.size(); ++i) {
    const PartitionWindow& w = plan_.partitions[i];
    if (t < w.start || t >= w.end) continue;
    const auto& side = partition_sides_[i];
    if (side.contains(src) != side.contains(dst)) return true;
  }
  return false;
}

double FaultInjector::drift_ppm(NodeId node) const {
  if (!plan_.clock_drift.enabled()) return 0.0;
  std::uint64_t x =
      drift_seed_ ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(node) + 1));
  x = util::splitmix64(x);
  const double u = static_cast<double>(x >> 11) * 0x1.0p-53;  // [0, 1)
  return (2.0 * u - 1.0) * plan_.clock_drift.max_drift_ppm;
}

double FaultInjector::rtt_skew_cycles(NodeId receiver, NodeId sender) const {
  if (!plan_.clock_drift.enabled()) return 0.0;
  return (drift_ppm(receiver) - drift_ppm(sender)) * 1e-6 *
         plan_.clock_drift.turnaround_cycles;
}

bool FaultInjector::link_lost(NodeId src, NodeId dst) {
  // i.i.d. term, applied to every link.
  if (plan_.loss_probability > 0.0 &&
      rng_.bernoulli(plan_.loss_probability))
    return true;

  // Gilbert-Elliott chain, one independent state per (src, dst) link.
  if (plan_.burst.enabled()) {
    bool& in_bad = link_in_bad_[FaultPlan::link_key(src, dst)];
    const double loss_p =
        in_bad ? plan_.burst.loss_bad : plan_.burst.loss_good;
    const bool lost = rng_.bernoulli(loss_p);
    // Evolve the chain after sampling the current state's loss.
    if (in_bad) {
      if (rng_.bernoulli(plan_.burst.p_exit_bad)) in_bad = false;
    } else {
      if (rng_.bernoulli(plan_.burst.p_enter_bad)) in_bad = true;
    }
    if (lost) return true;
  }

  // Per-node receiver-side loss.
  if (!plan_.node_loss.empty()) {
    const auto it = plan_.node_loss.find(dst);
    if (it != plan_.node_loss.end() && rng_.bernoulli(it->second))
      return true;
  }

  // Per-link loss.
  if (!plan_.link_loss.empty()) {
    const auto it = plan_.link_loss.find(FaultPlan::link_key(src, dst));
    if (it != plan_.link_loss.end() && rng_.bernoulli(it->second))
      return true;
  }

  return false;
}

FaultInjector::DeliveryFate FaultInjector::decide(NodeId src, NodeId dst) {
  DeliveryFate fate;
  if (!enabled_) return fate;
  if (link_lost(src, dst)) {
    fate.dropped = true;
    return fate;  // no further draws for a lost packet
  }
  if (plan_.duplicate_probability > 0.0)
    fate.duplicated = rng_.bernoulli(plan_.duplicate_probability);
  if (plan_.corruption_probability > 0.0)
    fate.corrupted = rng_.bernoulli(plan_.corruption_probability);
  if (plan_.max_extra_delay_ns > 0)
    fate.extra_delay_ns = static_cast<SimTime>(rng_.uniform_u64(
        static_cast<std::uint64_t>(plan_.max_extra_delay_ns)));
  return fate;
}

void FaultInjector::corrupt(Message& msg) {
  if (msg.payload.empty()) {
    // Nothing to flip in the payload: damage the tag itself.
    msg.mac ^= 1ULL << rng_.uniform_u64(64);
    return;
  }
  const std::size_t index =
      static_cast<std::size_t>(rng_.uniform_u64(msg.payload.size()));
  // XOR with a nonzero byte so the payload always actually changes.
  msg.payload[index] ^= static_cast<std::uint8_t>(1 + rng_.uniform_u64(255));
}

}  // namespace sld::sim
