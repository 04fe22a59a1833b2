// The round-trip-time substrate (paper §2.2.2 and Figure 4).
//
// The paper measures RTT = (t4 - t1) - (t3 - t2) on MICA motes, where the
// four timestamps bracket the first byte of the request/reply at the SPDR
// shift register. That cancels MAC and processing delay, leaving
//
//     RTT = d1 + d2 + d3 + d4 + 2 D / c
//
// with d1..d4 the radio-hardware byte-shift delays and D the node distance.
// The distribution is therefore narrow; the paper reports a span of about
// 4.5 bit-times (1 bit = 384 CPU cycles -> span ~= 1728 cycles), and any
// replay adding more than that span is detectable against the calibrated
// maximum x_max.
//
// MoteTimingModel reproduces that decomposition with per-edge base delays
// plus bounded jitter, calibrated so the no-attack span is 4.5 bit-times.
// calibrate_rtt runs the paper's 10,000-measurement experiment and keeps
// its x_min / x_max; LocalReplayFilter (in sld::detection) compares
// observed RTTs against x_max.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/time.hpp"
#include "util/rng.hpp"

namespace sld::ranging {

struct MoteTimingConfig {
  /// Base hardware latency of each of the four byte-shift edges, cycles.
  double edge_base_cycles = 1349.0;
  /// Uniform jitter added to each edge, cycles. Four edges at 432 each
  /// give a total span of 1728 cycles = 4.5 bit-times, matching Figure 4.
  double edge_jitter_cycles = 432.0;
};

/// Samples honest RTTs between two motes a given distance apart.
class MoteTimingModel {
 public:
  explicit MoteTimingModel(MoteTimingConfig config = {});

  const MoteTimingConfig& config() const { return config_; }

  /// One honest RTT sample, in CPU cycles: hardware delays + 2D/c.
  double sample_rtt_cycles(double distance_ft, util::Rng& rng) const;

  /// Smallest possible honest RTT (zero jitter, zero distance).
  double min_possible_cycles() const;

  /// Largest possible honest RTT at `max_distance_ft`.
  double max_possible_cycles(double max_distance_ft) const;

 private:
  MoteTimingConfig config_;
};

/// One request/reply exchange with the paper's Figure-3 timestamps:
///   t1  sender finishes putting the request's first byte on the air
///   t2  receiver finishes taking that byte off the air
///   t3  receiver finishes putting the reply's first byte on the air
///   t4  sender finishes taking that byte off the air
/// RTT = (t4 - t1) - (t3 - t2). The receiver-side gap (t3 - t2) contains
/// all MAC backoff and processing delay, so subtracting it leaves only the
/// four hardware byte-shift delays plus 2D/c — the paper's key claim, and
/// the reason the no-attack distribution is narrow.
struct RttExchange {
  double t1_cycles = 0.0;
  double t2_cycles = 0.0;
  double t3_cycles = 0.0;
  double t4_cycles = 0.0;

  double rtt_cycles() const {
    return (t4_cycles - t1_cycles) - (t3_cycles - t2_cycles);
  }
};

/// Simulates a full Figure-3 exchange, including arbitrary MAC/processing
/// delay at the receiver (`mac_delay_cycles`) which must cancel out of the
/// computed RTT.
RttExchange sample_rtt_exchange(const MoteTimingModel& model,
                                double distance_ft, double mac_delay_cycles,
                                util::Rng& rng);

/// The no-attack RTT experiment: the RTTs of `samples` request/reply
/// exchanges between neighbour motes at uniformly random distances up to
/// `max_distance_ft`, in draw order. Figure 4 is their empirical CDF.
/// Throws std::invalid_argument for zero samples or a negative distance.
std::vector<double> sample_calibration_rtts(const MoteTimingModel& model,
                                            std::size_t samples,
                                            double max_distance_ft,
                                            util::Rng& rng);

/// The bounds of the no-attack RTT distribution the detector keeps.
struct RttCalibration {
  double x_min_cycles = 0.0;  // max x with F(x) = 0: the smallest sample
  double x_max_cycles = 0.0;  // min x with F(x) = 1: the largest sample
};

/// The bounds of the samples sample_calibration_rtts draws from the same
/// `rng` state, taken while drawing: nothing is stored or sorted.
RttCalibration calibrate_rtt(const MoteTimingModel& model,
                             std::size_t samples, double max_distance_ft,
                             util::Rng& rng);

}  // namespace sld::ranging
