#include "ranging/rssi.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sld::ranging {

RssiRangingModel::RssiRangingModel(RssiConfig config) : config_(config) {
  // NaN-proof, naming the field: a NaN or infinite bound makes every
  // measured distance NaN, which the final clamp reads as 0 ft, and then
  // no deviation exceeds the bound.
  if (!(config_.max_error_ft >= 0.0 && std::isfinite(config_.max_error_ft)))
    throw std::invalid_argument(
        "RssiRangingModel: max_error_ft must be finite and non-negative");
  if (!(config_.path_loss_exponent > 0.0 &&
        std::isfinite(config_.path_loss_exponent)))
    throw std::invalid_argument(
        "RssiRangingModel: path_loss_exponent must be finite and positive");
  if (!(config_.reference_distance_ft > 0.0 &&
        std::isfinite(config_.reference_distance_ft)))
    throw std::invalid_argument(
        "RssiRangingModel: reference_distance_ft must be finite and "
        "positive");
  if (!(config_.shadowing_sigma_db >= 0.0 &&
        std::isfinite(config_.shadowing_sigma_db)))
    throw std::invalid_argument(
        "RssiRangingModel: shadowing_sigma_db must be finite and "
        "non-negative");
}

double RssiRangingModel::measure(double true_distance_ft,
                                 util::Rng& rng) const {
  if (true_distance_ft < 0.0)
    throw std::invalid_argument("RssiRangingModel::measure: negative distance");

  double error = 0.0;
  switch (config_.kind) {
    case RssiModelKind::kBoundedUniform:
      error = rng.uniform(-config_.max_error_ft, config_.max_error_ft);
      break;
    case RssiModelKind::kLogNormalShadowing: {
      // Path loss PL(d) = PL(d0) + 10 n log10(d/d0) + X_sigma. The receiver
      // inverts the mean model, so the distance error is multiplicative:
      // d_hat = d * 10^(X / (10 n)). Clip to the calibrated bound.
      const double d = std::max(true_distance_ft,
                                config_.reference_distance_ft);
      const double shadow_db = rng.normal(0.0, config_.shadowing_sigma_db);
      const double d_hat =
          d * std::pow(10.0, shadow_db / (10.0 * config_.path_loss_exponent));
      error = std::clamp(d_hat - true_distance_ft, -config_.max_error_ft,
                         config_.max_error_ft);
      break;
    }
  }
  return std::max(0.0, true_distance_ft + error);
}

double RssiRangingModel::measure_manipulated(double true_distance_ft,
                                             double manipulation_ft,
                                             util::Rng& rng) const {
  return std::max(0.0, measure(true_distance_ft, rng) + manipulation_ft);
}

}  // namespace sld::ranging
