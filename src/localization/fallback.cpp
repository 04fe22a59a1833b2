#include "localization/fallback.hpp"

#include "localization/centroid.hpp"

namespace sld::localization {

const char* confidence_tier_name(ConfidenceTier tier) {
  switch (tier) {
    case ConfidenceTier::kMultilateration:
      return "mlat";
    case ConfidenceTier::kRobust:
      return "robust";
    case ConfidenceTier::kCentroid:
      return "centroid";
  }
  return "unknown";
}

std::optional<FallbackResult> localize(const LocationReferences& refs,
                                       const FallbackConfig& config) {
  const MultilaterationSolver solver;
  // Disabled, the ladder is its first rung alone, with no RMS bound.
  if (!config.enabled) {
    const auto fit = solver.solve(refs);
    if (!fit) return std::nullopt;
    return FallbackResult{.position = fit->position,
                          .rms_residual_ft = fit->rms_residual_ft};
  }
  if (refs.empty()) return std::nullopt;

  if (refs.size() >= config.min_references) {
    if (const auto fit = solver.solve(refs);
        fit.has_value() && fit->rms_residual_ft <= config.acceptable_rms_ft) {
      return FallbackResult{.position = fit->position,
                            .rms_residual_ft = fit->rms_residual_ft};
    }
    RobustOptions robust;
    robust.acceptable_rms_ft = config.acceptable_rms_ft;
    robust.min_references = config.min_references;
    if (const auto fit = robust_multilateration(refs, robust);
        fit.has_value()) {
      return FallbackResult{.position = fit->fit.position,
                            .rms_residual_ft = fit->fit.rms_residual_ft,
                            .tier = ConfidenceTier::kRobust,
                            .discarded = fit->discarded.size()};
    }
  }

  // Range-free rung: always available with >= 1 reference; no residual
  // structure, so the tier is the caller's only quality signal.
  if (const auto centroid = weighted_centroid_estimate(refs);
      centroid.has_value()) {
    return FallbackResult{.position = *centroid,
                          .tier = ConfidenceTier::kCentroid};
  }
  return std::nullopt;
}

}  // namespace sld::localization
