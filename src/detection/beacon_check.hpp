// The malicious-beacon-signal detector (paper §2.1, Figure 2).
//
// A detecting node knows its own location; the beacon packet carries the
// target's claimed location; the signal yields a measured distance. If
//
//     | sqrt((x-x')^2 + (y-y')^2) - measured | > maximum measurement error
//
// the beacon signal must be malicious: an honest measurement from an honest
// beacon at the claimed position can never violate the bound. Conversely, a
// consistent-but-lying signal "is equivalent to the situation where a
// benign beacon node located at (x', y') sends a benign beacon signal" —
// harmless by construction.
#pragma once

#include "util/geometry.hpp"

namespace sld::detection {

/// The full evidence behind one consistency verdict — what forensics and
/// tracing report alongside the boolean.
struct ConsistencyResult {
  /// Distance implied by the two locations, in feet.
  double calculated_ft = 0.0;
  /// |calculated - measured|, the quantity compared against the bound.
  double deviation_ft = 0.0;
  bool malicious = false;
};

class ConsistencyCheck {
 public:
  /// `max_error_ft` is the maximum honest ranging error (paper: 4 ft).
  explicit ConsistencyCheck(double max_error_ft);

  double max_error_ft() const { return max_error_ft_; }

  /// Distance the detecting node computes from the two locations.
  static double calculated_distance(const util::Vec2& detector_position,
                                    const util::Vec2& claimed_position);

  /// The verdict plus the measured-vs-calculated evidence behind it. A
  /// non-finite claimed coordinate or measured distance is malicious.
  ConsistencyResult check(const util::Vec2& detector_position,
                          const util::Vec2& claimed_position,
                          double measured_distance_ft) const;

  /// True if the signal is malicious: measured vs calculated distance
  /// differ by more than the maximum measurement error.
  bool is_malicious(const util::Vec2& detector_position,
                    const util::Vec2& claimed_position,
                    double measured_distance_ft) const;

 private:
  double max_error_ft_;
};

}  // namespace sld::detection
