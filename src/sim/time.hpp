// Simulation time. The protocol layer runs on nanosecond-resolution virtual
// time; the RTT filter additionally reasons in MICA-mote CPU clock cycles
// (7.3728 MHz), the unit the paper's Figure 4 uses.
#pragma once

#include <cstdint>
#include <optional>

namespace sld::sim {

/// Virtual time in nanoseconds since simulation start.
using SimTime = std::int64_t;

/// `base + count * step`, or nullopt if a step of the sum leaves SimTime's
/// range: how a planned schedule checks its last time before it starts.
constexpr std::optional<SimTime> offset_time(SimTime base, std::uint64_t count,
                                             SimTime step) {
  SimTime span = 0;
  SimTime sum = 0;
  if (__builtin_mul_overflow(count, step, &span) ||
      __builtin_add_overflow(base, span, &sum))
    return std::nullopt;
  return sum;
}

inline constexpr SimTime kNanosecond = 1;
inline constexpr SimTime kMicrosecond = 1000 * kNanosecond;
inline constexpr SimTime kMillisecond = 1000 * kMicrosecond;
inline constexpr SimTime kSecond = 1000 * kMillisecond;

/// MICA2-class mote: 7.3728 MHz CPU, 19.2 kbps radio -> exactly 384 CPU
/// cycles per transmitted bit, matching the paper's "one bit is about 384
/// clock cycles".
inline constexpr double kCpuHz = 7'372'800.0;
inline constexpr double kRadioBitsPerSecond = 19'200.0;
inline constexpr double kCyclesPerBit = kCpuHz / kRadioBitsPerSecond;  // 384

/// Speed of light in feet per second (the field is measured in feet).
inline constexpr double kSpeedOfLightFtPerSec = 983'571'056.43;

/// Converts CPU cycles to virtual nanoseconds.
constexpr SimTime cycles_to_ns(double cycles) {
  return static_cast<SimTime>(cycles / kCpuHz * 1e9);
}

/// Converts a distance in feet to radio propagation cycles (one way).
constexpr double propagation_cycles(double distance_ft) {
  return distance_ft / kSpeedOfLightFtPerSec * kCpuHz;
}

}  // namespace sld::sim
