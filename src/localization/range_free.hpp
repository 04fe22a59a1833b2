// Range-free localization in the spirit of SerLoc (Lazos & Poovendran,
// WiSe'04 — the paper's related-work comparator [16]: "a secure range-free
// localization technique ... However, it cannot detect and remove
// compromised beacon nodes"). The sensor uses only *connectivity*: hearing
// beacon b proves the sensor lies inside b's coverage disk, so it
// estimates its position as the centroid of the intersection of all heard
// beacons' disks (computed by grid sampling, as SerLoc's CoG of the
// overlapping region). No distances are measured, which removes the
// ranging attack surface but leaves the scheme fully exposed to location
// lies — the comparison the paper's argument rests on.
#pragma once

#include <optional>
#include <vector>

#include "util/geometry.hpp"

namespace sld::localization {

struct RangeFreeConfig {
  /// Beacon coverage radius, feet.
  double comm_range_ft = 150.0;
  /// Grid-sampling resolution for the region centroid, feet.
  double grid_step_ft = 5.0;
};

struct RangeFreeResult {
  util::Vec2 position;
  /// Number of grid samples inside the intersection (its area is
  /// samples * step^2) — a confidence proxy.
  std::size_t region_samples = 0;
};

/// Centroid of the intersection of the heard beacons' coverage disks;
/// nullopt when no beacon is heard or the claimed disks are inconsistent
/// (empty intersection — itself a tamper signal).
std::optional<RangeFreeResult> range_free_estimate(
    const std::vector<util::Vec2>& heard_beacon_positions,
    const RangeFreeConfig& config = {});

}  // namespace sld::localization
