// Minimum-mean-square-error multilateration — the canonical stage-2
// estimator the paper protects: "consider the location references as
// constraints ... and estimate it by finding a mathematical solution that
// satisfy these constraints with minimum estimation error".
//
// The solver linearises the circle equations for an initial guess, then
// refines with Gauss-Newton iterations under Levenberg damping. At least
// three non-collinear references are required for a unique planar fix.
#pragma once

#include <optional>

#include "localization/location_reference.hpp"
#include "util/geometry.hpp"

namespace sld::localization {

struct MultilaterationOptions {
  std::size_t max_iterations = 50;
  double convergence_ft = 1e-6;
  double initial_damping = 1e-3;
};

struct LocalizationResult {
  util::Vec2 position;
  /// Root-mean-square residual of |measured - distance(position, beacon)|.
  double rms_residual_ft = 0.0;
};

class MultilaterationSolver {
 public:
  explicit MultilaterationSolver(MultilaterationOptions options = {});

  /// Estimates a position from >= 3 references. Returns nullopt when the
  /// problem is under-constrained (fewer than 3 references, or a degenerate
  /// collinear geometry the normal equations cannot invert) or when the
  /// estimate is not finite (a non-finite reference).
  std::optional<LocalizationResult> solve(
      const LocationReferences& references) const;

 private:
  std::optional<util::Vec2> linear_initial_guess(
      const LocationReferences& refs) const;

  MultilaterationOptions options_;
};

/// RMS residual of a candidate position against references.
double rms_residual(const util::Vec2& position,
                    const LocationReferences& references);

}  // namespace sld::localization
