// Coverage-aware localization fallback ladder.
//
// Quarantine (lifecycle.hpp) deliberately removes beacons from service,
// and a framing attack tries to remove the *coverage-critical* ones — so
// a sensor can legitimately find itself with fewer or worse references
// than plain multilateration needs. Rather than fail, the ladder degrades
// through estimators with an explicit confidence tier in the result:
//
//   tier 0  multilateration  >= 3 refs, MMSE fit with acceptable RMS
//   tier 1  robust           >= 3 refs, outlier-discarding fit accepted
//   tier 2  centroid         any refs, distance-weighted centroid (no
//                            residual structure — coarse but available)
//
// Zero references is the only unlocalizable case. Disabled (the default),
// the ladder is its first rung alone: the plain multilateration fit with
// no RMS bound, and no fix below 3 references or from a degenerate
// geometry — the seed's multilateration-or-fail behaviour.
#pragma once

#include <cstdint>
#include <optional>

#include "localization/location_reference.hpp"
#include "localization/multilateration.hpp"
#include "localization/robust.hpp"
#include "util/geometry.hpp"

namespace sld::localization {

struct FallbackConfig {
  /// Master switch; off runs only the multilateration rung, unbounded.
  bool enabled = false;
  /// A plain multilateration fit with RMS residual above this (feet)
  /// falls through to the robust estimator.
  double acceptable_rms_ft = 4.0;
  /// Robust-stage options (threshold mirrors acceptable_rms_ft).
  std::size_t min_references = 3;
};

/// Ladder rung the estimate came from, best first. The numeric values are
/// stable (traced and exported); lower = higher confidence.
enum class ConfidenceTier : std::uint8_t {
  kMultilateration = 0,
  kRobust = 1,
  kCentroid = 2,
};

const char* confidence_tier_name(ConfidenceTier tier);

struct FallbackResult {
  util::Vec2 position;
  /// RMS residual of the accepted fit (0 for the centroid rung, which
  /// carries no residual structure).
  double rms_residual_ft = 0.0;
  ConfidenceTier tier = ConfidenceTier::kMultilateration;
  /// References the robust rung discarded (empty elsewhere).
  std::size_t discarded = 0;
};

/// Runs the ladder: nullopt only when `refs` is empty. Disabled, runs the
/// multilateration rung alone: nullopt when the solver finds no fix.
std::optional<FallbackResult> localize(const LocationReferences& refs,
                                       const FallbackConfig& config);

}  // namespace sld::localization
