#include "ranging/toa.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/time.hpp"

namespace sld::ranging {

namespace {
constexpr double kFeetPerNanosecond = sim::kSpeedOfLightFtPerSec * 1e-9;
}

ToaRangingModel::ToaRangingModel(ToaConfig config) : config_(config) {
  // NaN-proof: a NaN bound makes every distance NaN, read as 0 ft.
  if (!(config_.max_sync_error_ns >= 0.0 &&
        std::isfinite(config_.max_sync_error_ns)))
    throw std::invalid_argument(
        "ToaRangingModel: max_sync_error_ns must be finite and non-negative");
}

double ToaRangingModel::max_error_ft() const {
  return config_.max_sync_error_ns * kFeetPerNanosecond;
}

double ToaRangingModel::measure(double true_distance_ft,
                                util::Rng& rng) const {
  if (true_distance_ft < 0.0)
    throw std::invalid_argument("ToaRangingModel::measure: negative distance");
  const double err_ns =
      rng.uniform(-config_.max_sync_error_ns, config_.max_sync_error_ns);
  return std::max(0.0, true_distance_ft + err_ns * kFeetPerNanosecond);
}

double ToaRangingModel::measure_manipulated(double true_distance_ft,
                                            double manipulation_ns,
                                            util::Rng& rng) const {
  return std::max(0.0, measure(true_distance_ft, rng) +
                           manipulation_ns * kFeetPerNanosecond);
}

}  // namespace sld::ranging
