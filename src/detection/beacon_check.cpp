#include "detection/beacon_check.hpp"

#include <cmath>
#include <stdexcept>

namespace sld::detection {

ConsistencyCheck::ConsistencyCheck(double max_error_ft)
    : max_error_ft_(max_error_ft) {
  if (!(max_error_ft >= 0.0))  // NaN-proof
    throw std::invalid_argument(
        "ConsistencyCheck: max_error_ft must be non-negative");
}

double ConsistencyCheck::calculated_distance(
    const util::Vec2& detector_position, const util::Vec2& claimed_position) {
  return util::distance(detector_position, claimed_position);
}

ConsistencyResult ConsistencyCheck::check(const util::Vec2& detector_position,
                                          const util::Vec2& claimed_position,
                                          double measured_distance_ft) const {
  if (measured_distance_ft < 0.0)
    throw std::invalid_argument("ConsistencyCheck: negative measurement");
  ConsistencyResult r;
  r.calculated_ft = calculated_distance(detector_position, claimed_position);
  r.deviation_ft = std::abs(r.calculated_ft - measured_distance_ft);
  // A compromised beacon holds valid keys, so a correctly MACed reply can
  // claim NaN or an infinity. NaN compares false against the bound, so
  // non-finite inputs are flagged outright: the check fails closed.
  const bool finite_inputs = std::isfinite(claimed_position.x) &&
                             std::isfinite(claimed_position.y) &&
                             std::isfinite(measured_distance_ft);
  r.malicious = !finite_inputs || r.deviation_ft > max_error_ft_;
  return r;
}

bool ConsistencyCheck::is_malicious(const util::Vec2& detector_position,
                                    const util::Vec2& claimed_position,
                                    double measured_distance_ft) const {
  return check(detector_position, claimed_position, measured_distance_ft)
      .malicious;
}

}  // namespace sld::detection
