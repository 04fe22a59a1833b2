#include "localization/robust.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace sld::localization {

std::optional<RobustResult> robust_multilateration(
    const LocationReferences& references, const RobustOptions& options) {
  if (options.min_references < 3)
    throw std::invalid_argument(
        "robust_multilateration: need at least 3 references for a 2-D fix");
  if (options.acceptable_rms_ft <= 0.0)
    throw std::invalid_argument("robust_multilateration: bad threshold");

  MultilaterationSolver solver(options.solver);

  LocationReferences working = references;
  std::vector<std::size_t> original_index(references.size());
  std::iota(original_index.begin(), original_index.end(), 0);

  RobustResult result;
  for (;;) {
    auto fit = solver.solve(working);
    if (!fit) return std::nullopt;
    if (fit->rms_residual_ft <= options.acceptable_rms_ft ||
        working.size() <= options.min_references) {
      result.fit = std::move(*fit);
      return result;
    }
    // Drop the worst-residual reference and retry.
    std::size_t worst = 0;
    double worst_abs = -1.0;
    for (std::size_t i = 0; i < working.size(); ++i) {
      const double a =
          std::abs(util::distance(fit->position, working[i].beacon_position) -
                   working[i].measured_distance_ft);
      if (a > worst_abs) {
        worst_abs = a;
        worst = i;
      }
    }
    result.discarded.push_back(original_index[worst]);
    working.erase(working.begin() + static_cast<std::ptrdiff_t>(worst));
    original_index.erase(original_index.begin() +
                         static_cast<std::ptrdiff_t>(worst));
  }
}

}  // namespace sld::localization
