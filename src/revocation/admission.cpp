#include "revocation/admission.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace sld::revocation {

namespace {
/// NaN-proof: a NaN or infinite rate or burst would open the gate.
void check_finite_non_negative(double x, const char* field) {
  if (!(x >= 0 && std::isfinite(x)))
    throw std::invalid_argument(std::string("Admission: ") + field +
                                " must be finite and non-negative");
}
}  // namespace

const char* breaker_state_name(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kShedding:
      return "shedding";
    case BreakerState::kDegraded:
      return "degraded";
    case BreakerState::kRecovering:
      return "recovering";
  }
  return "unknown";
}

AdmissionController::AdmissionController(
    const AdmissionConfig& config, const std::vector<StallWindow>& stall_windows)
    : config_(config), pairs_(config.pair_window) {
  check_finite_non_negative(config_.reporter_rate_per_s, "reporter_rate_per_s");
  check_finite_non_negative(config_.reporter_burst, "reporter_burst");
  if (config_.breaker_trip_ns <= 0 || config_.breaker_cooldown_ns < 0 ||
      config_.shed_reopen_ns < 0)
    throw std::invalid_argument("Admission: breaker times must be positive");
  sim::SimTime prev_end = 0;
  for (const StallWindow& w : stall_windows) {
    if (w.end <= w.start || w.start < prev_end)
      throw std::invalid_argument(
          "Admission: stall windows must be sorted, non-overlapping and "
          "non-empty");
    prev_end = w.end;
    // The breaker reads degraded once the stall has lasted breaker_trip_ns;
    // a stall shorter than the trip time never trips it.
    if (w.start + config_.breaker_trip_ns < w.end)
      degraded_.push_back({w.start + config_.breaker_trip_ns, w.end});
  }
}

AdmissionController::Decision AdmissionController::admit(sim::NodeId reporter,
                                                         sim::NodeId target,
                                                         sim::SimTime now) {
  if (!config_.enabled) return Decision::kAdmit;
  // A repeat accusation carries no new evidence — absorb it before it can
  // spend a token, so floods of identical accusations are the cheapest
  // traffic there is.
  if (config_.pair_window != 0 &&
      pairs_.contains(AlertKey{reporter, target, 0}))
    return Decision::kDuplicatePair;
  if (config_.reporter_rate_per_s > 0) {
    const auto [it, fresh] = buckets_.try_emplace(
        reporter, Bucket{config_.reporter_burst, now});
    Bucket& b = it->second;
    if (!fresh) {
      const double elapsed_s = static_cast<double>(now - b.last_refill) /
                               static_cast<double>(sim::kSecond);
      b.tokens = std::min(config_.reporter_burst,
                          b.tokens + elapsed_s * config_.reporter_rate_per_s);
      b.last_refill = now;
    }
    if (b.tokens < 1.0) return Decision::kRateLimited;
    b.tokens -= 1.0;
  }
  return Decision::kAdmit;
}

void AdmissionController::remember_pair(sim::NodeId reporter,
                                        sim::NodeId target) {
  if (!config_.enabled || config_.pair_window == 0) return;
  pairs_.insert(AlertKey{reporter, target, 0});
}

void AdmissionController::note_shed(sim::SimTime now) {
  any_shed_ = true;
  last_shed_ = std::max(last_shed_, now);
}

BreakerState AdmissionController::state(sim::SimTime now) const {
  for (const StallWindow& d : degraded_) {
    if (d.start <= now && now < d.end) return BreakerState::kDegraded;
  }
  for (const StallWindow& d : degraded_) {
    if (now >= d.end && now < d.end + config_.breaker_cooldown_ns)
      return BreakerState::kRecovering;
  }
  if (any_shed_ && now < last_shed_ + config_.shed_reopen_ns)
    return BreakerState::kShedding;
  return BreakerState::kClosed;
}

}  // namespace sld::revocation
