#include "revocation/dissemination.hpp"

#include <stdexcept>

namespace sld::revocation {

DisseminationModel::DisseminationModel(double reach_probability,
                                       std::uint64_t seed)
    : reach_probability_(reach_probability) {
  if (!(reach_probability_ >= 0.0 && reach_probability_ <= 1.0))
    throw std::invalid_argument(
        "DisseminationModel: probability outside [0, 1]");
  for (int i = 0; i < 8; ++i) {
    key_[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(seed >> (8 * i));
    key_[static_cast<std::size_t>(i + 8)] = static_cast<std::uint8_t>(
        (seed ^ 0x5bd1e995978e3dbdULL) >> (8 * i));
  }
}

bool DisseminationModel::sensor_knows(sim::NodeId sensor,
                                      sim::NodeId revoked_beacon) const {
  bool knows = true;
  if (reach_probability_ >= 1.0) {
    knows = true;
  } else if (reach_probability_ <= 0.0) {
    knows = false;
  } else {
    const std::uint64_t h = crypto::siphash24_u64(
        key_, (static_cast<std::uint64_t>(sensor) << 32) |
                  static_cast<std::uint64_t>(revoked_beacon));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    knows = u < reach_probability_;
  }
  if (!knows && trace_.on()) {
    trace_.emit(trace_.event("dissem.miss")
                    .f("sensor", sensor)
                    .f("target", revoked_beacon));
  }
  return knows;
}

}  // namespace sld::revocation
