#include "sim/arq.hpp"

#include <cmath>
#include <stdexcept>

#include "check/invariant.hpp"

namespace sld::sim {

namespace {
/// initial * backoff^attempt: the timeout of `attempt` before jitter.
double nominal_timeout(const ArqConfig& config, std::size_t attempt) {
  return static_cast<double>(config.initial_timeout_ns) *
         std::pow(config.backoff_factor, static_cast<double>(attempt));
}
}  // namespace

void check_arq(const ArqConfig& config, std::size_t attempt) {
  if (config.initial_timeout_ns <= 0)
    throw std::invalid_argument("ArqConfig: timeout must be positive");
  if (!(config.backoff_factor >= 1.0))
    throw std::invalid_argument("ArqConfig: backoff factor < 1");
  if (!(config.jitter_fraction >= 0.0 && config.jitter_fraction < 1.0))
    throw std::invalid_argument("ArqConfig: jitter fraction outside [0, 1)");
  // 2^63 is the first double past SimTime's range; casting it or anything
  // larger is undefined. Full jitter bounds every timeout the attempt can
  // draw.
  if (!(nominal_timeout(config, attempt) * (1.0 + config.jitter_fraction) <
        0x1p63))
    throw std::invalid_argument("ArqConfig: timeout overflows SimTime");
}

SimTime arq_timeout(const ArqConfig& config, std::size_t attempt,
                    util::Rng& rng) {
  SLD_INVARIANT(attempt <= config.max_retries,
                "retries bounded: attempt index " << attempt
                    << " exceeds max_retries=" << config.max_retries);
  check_arq(config, attempt);
  double timeout = nominal_timeout(config, attempt);
  if (config.jitter_fraction > 0.0) {
    timeout *= 1.0 + rng.uniform(-config.jitter_fraction,
                                 config.jitter_fraction);
  }
  return static_cast<SimTime>(timeout);
}

}  // namespace sld::sim
