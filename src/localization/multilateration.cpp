#include "localization/multilateration.hpp"

#include <cmath>
#include <stdexcept>


namespace sld::localization {

MultilaterationSolver::MultilaterationSolver(MultilaterationOptions options)
    : options_(options) {
  if (options_.max_iterations == 0)
    throw std::invalid_argument("MultilaterationSolver: zero iterations");
  if (options_.convergence_ft <= 0.0)
    throw std::invalid_argument("MultilaterationSolver: bad tolerance");
}

double rms_residual(const util::Vec2& position,
                    const LocationReferences& references) {
  if (references.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& r : references) {
    const double err =
        util::distance(position, r.beacon_position) - r.measured_distance_ft;
    sum += err * err;
  }
  return std::sqrt(sum / static_cast<double>(references.size()));
}

std::optional<util::Vec2> MultilaterationSolver::linear_initial_guess(
    const LocationReferences& refs) const {
  // Subtracting the last circle equation from the others linearises the
  // system: 2(xn - xi) x + 2(yn - yi) y = (di^2 - dn^2) - (xi^2 - xn^2)
  // - (yi^2 - yn^2). Solve the 2x2 normal equations.
  const auto& last = refs.back();
  double a11 = 0.0, a12 = 0.0, a22 = 0.0, b1 = 0.0, b2 = 0.0;
  for (std::size_t i = 0; i + 1 < refs.size(); ++i) {
    const auto& r = refs[i];
    const double ax = 2.0 * (last.beacon_position.x - r.beacon_position.x);
    const double ay = 2.0 * (last.beacon_position.y - r.beacon_position.y);
    const double rhs =
        (r.measured_distance_ft * r.measured_distance_ft -
         last.measured_distance_ft * last.measured_distance_ft) -
        (r.beacon_position.norm_squared() -
         last.beacon_position.norm_squared());
    a11 += ax * ax;
    a12 += ax * ay;
    a22 += ay * ay;
    b1 += ax * rhs;
    b2 += ay * rhs;
  }
  const double det = a11 * a22 - a12 * a12;
  if (std::abs(det) < 1e-9) return std::nullopt;  // collinear beacons
  return util::Vec2{(a22 * b1 - a12 * b2) / det, (a11 * b2 - a12 * b1) / det};
}

std::optional<LocalizationResult> MultilaterationSolver::solve(
    const LocationReferences& references) const {
  if (references.size() < 3) return std::nullopt;

  auto guess = linear_initial_guess(references);
  if (!guess) return std::nullopt;
  util::Vec2 p = *guess;

  double damping = options_.initial_damping;
  double prev_cost = rms_residual(p, references);

  for (std::size_t it = 0; it < options_.max_iterations; ++it) {
    // Normal equations for J^T J delta = J^T r with Levenberg damping.
    double a11 = damping, a12 = 0.0, a22 = damping, g1 = 0.0, g2 = 0.0;
    for (const auto& r : references) {
      const util::Vec2 diff = p - r.beacon_position;
      const double dist = std::max(diff.norm(), 1e-9);
      const double jx = diff.x / dist;
      const double jy = diff.y / dist;
      const double resid = dist - r.measured_distance_ft;
      a11 += jx * jx;
      a12 += jx * jy;
      a22 += jy * jy;
      g1 += jx * resid;
      g2 += jy * resid;
    }
    const double det = a11 * a22 - a12 * a12;
    if (std::abs(det) < 1e-12) break;
    const util::Vec2 delta{(a22 * g1 - a12 * g2) / det,
                           (a11 * g2 - a12 * g1) / det};
    const util::Vec2 candidate = p - delta;
    const double cost = rms_residual(candidate, references);
    if (cost <= prev_cost) {
      p = candidate;
      prev_cost = cost;
      damping = std::max(damping * 0.5, 1e-9);
      if (delta.norm() < options_.convergence_ft) break;
    } else {
      damping *= 4.0;  // reject step, steepen toward gradient descent
      if (damping > 1e6) break;
    }
  }

  // A non-finite reference (an infinite measured distance) poisons the
  // normal equations; that is no fix, not a fix at (nan, nan).
  if (!std::isfinite(p.x) || !std::isfinite(p.y)) return std::nullopt;

  LocalizationResult result;
  result.position = p;
  result.rms_residual_ft = rms_residual(p, references);
  return result;
}

}  // namespace sld::localization
