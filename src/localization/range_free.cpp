#include "localization/range_free.hpp"

#include <algorithm>
#include <stdexcept>

namespace sld::localization {

std::optional<RangeFreeResult> range_free_estimate(
    const std::vector<util::Vec2>& heard_beacon_positions,
    const RangeFreeConfig& config) {
  if (config.comm_range_ft <= 0.0)
    throw std::invalid_argument("range_free: bad range");
  if (config.grid_step_ft <= 0.0)
    throw std::invalid_argument("range_free: bad grid step");
  if (heard_beacon_positions.empty()) return std::nullopt;

  // Grid-sample the bounding box of the disks' intersection.
  const auto& centers = heard_beacon_positions;
  double x0 = centers[0].x - config.comm_range_ft;
  double x1 = centers[0].x + config.comm_range_ft;
  double y0 = centers[0].y - config.comm_range_ft;
  double y1 = centers[0].y + config.comm_range_ft;
  for (const auto& b : centers) {
    x0 = std::max(x0, b.x - config.comm_range_ft);
    x1 = std::min(x1, b.x + config.comm_range_ft);
    y0 = std::max(y0, b.y - config.comm_range_ft);
    y1 = std::min(y1, b.y + config.comm_range_ft);
  }
  if (x0 > x1 || y0 > y1) return std::nullopt;

  const double r2 = config.comm_range_ft * config.comm_range_ft;
  const auto inside_every_disk = [&](const util::Vec2& p) {
    for (const auto& b : centers) {
      if (util::distance_squared(p, b) > r2) return false;
    }
    return true;
  };
  util::Vec2 sum;
  std::size_t inside = 0;
  for (double x = x0; x <= x1; x += config.grid_step_ft) {
    for (double y = y0; y <= y1; y += config.grid_step_ft) {
      const util::Vec2 p{x, y};
      if (!inside_every_disk(p)) continue;
      sum += p;
      ++inside;
    }
  }
  if (inside == 0) return std::nullopt;
  RangeFreeResult result;
  result.position = sum / static_cast<double>(inside);
  result.region_samples = inside;
  return result;
}

}  // namespace sld::localization
