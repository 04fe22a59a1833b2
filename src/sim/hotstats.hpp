// Hot-path micro-counter sinks for the simulator (the memstats layer's
// deterministic half; see obs/memstats.hpp for allocation telemetry).
//
// A `HotStats` is a bundle of registry-owned histograms the scheduler's
// event queue and the channel observe as they run: queue depth per push,
// items each pop moves between the queue's buckets, event wait, wormhole
// mouths scanned per transmission, and packet lifetime (schedule ->
// delivery sim-time). The totals behind them live in the event queue and
// in ChannelStats. Every field is optional — a
// default-constructed HotStats (or a null pointer where one is wired)
// records nothing, so the hot paths pay one branch per site when the
// `--memstats` instruments are off and runs stay bit-for-bit identical to
// the seed. All recorded values are deterministic functions of (config,
// seed): they are part of the exact regression gate, identical at any
// `--jobs N`.
#pragma once

#include "obs/metrics.hpp"

namespace sld::sim {

struct HotStats {
  /// Queue depth observed after each push (hot.queue_depth).
  obs::Histogram* queue_depth = nullptr;
  /// Items each pop moves between the event queue's buckets
  /// (hot.sift_down; a push moves none).
  obs::Histogram* sift_down = nullptr;
  /// Sim-time an event waited from schedule to execution
  /// (hot.event_wait_ns).
  obs::Histogram* event_wait_ns = nullptr;
  /// Wormhole mouths examined per transmission scan (hot.scan_fanout).
  obs::Histogram* scan_fanout = nullptr;
  /// Sim-time from packet scheduling (the in-flight copy's allocation) to
  /// its delivery callback (the copy's release) (hot.packet_lifetime_ns).
  obs::Histogram* packet_lifetime_ns = nullptr;
};

}  // namespace sld::sim
