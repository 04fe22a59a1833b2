// Automatic repeat request (ARQ) policy: timeout, bounded retries, and
// exponential backoff with jitter.
//
// The paper side-steps channel loss by assuming "reliable delivery via
// retransmission"; this is the retransmission. The protocol layers (probe
// exchange, sensor queries, alert transport) consult an ArqConfig to decide
// how long to wait for a response and how to pace retries. With
// `enabled = false` (the default) no timeout events are scheduled and no
// randomness is drawn, so the fault-free event sequence is untouched.
#pragma once

#include <cstddef>

#include "sim/time.hpp"
#include "util/rng.hpp"

namespace sld::sim {

struct ArqConfig {
  /// Master switch. Disabled: requests are sent once and losses are
  /// silent, exactly the seed behaviour.
  bool enabled = false;
  /// Wait after each (re)transmission before declaring it lost. Must
  /// comfortably exceed the request+reply air time (~8 ms each way at
  /// 19.2 kbps) plus jitter.
  SimTime initial_timeout_ns = 250 * kMillisecond;
  /// Retransmissions after the first attempt; attempt count is
  /// 1 + max_retries in the worst case.
  std::size_t max_retries = 3;
  /// Timeout multiplier per retry (exponential backoff).
  double backoff_factor = 2.0;
  /// Uniform +/- fraction applied to each timeout so retry storms from
  /// simultaneous losers decorrelate.
  double jitter_fraction = 0.1;
};

/// Throws std::invalid_argument unless `config` can time `attempt`: a
/// positive initial timeout, a backoff factor >= 1, a jitter fraction in
/// [0, 1) (NaN fails each), and a timeout at full jitter below 2^63 ns.
/// SystemConfig checks `max_retries`, the longest, when ARQ is enabled.
void check_arq(const ArqConfig& config, std::size_t attempt);

/// Timeout for `attempt` (0 = first transmission):
///   initial * backoff^attempt * (1 + U(-jitter, +jitter)).
/// Draws from `rng` only if jitter_fraction > 0. Throws as check_arq.
SimTime arq_timeout(const ArqConfig& config, std::size_t attempt,
                    util::Rng& rng);

}  // namespace sld::sim
