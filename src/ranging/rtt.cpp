#include "ranging/rtt.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sld::ranging {

MoteTimingModel::MoteTimingModel(MoteTimingConfig config) : config_(config) {
  // NaN-proof, naming the field: a NaN edge delay used to fail later, in
  // the RTT calibration's histogram, under no field's name.
  if (!(config_.edge_base_cycles >= 0.0 &&
        std::isfinite(config_.edge_base_cycles)))
    throw std::invalid_argument(
        "MoteTimingModel: edge_base_cycles must be finite and non-negative");
  if (!(config_.edge_jitter_cycles >= 0.0 &&
        std::isfinite(config_.edge_jitter_cycles)))
    throw std::invalid_argument(
        "MoteTimingModel: edge_jitter_cycles must be finite and "
        "non-negative");
}

double MoteTimingModel::sample_rtt_cycles(double distance_ft,
                                          util::Rng& rng) const {
  if (distance_ft < 0.0)
    throw std::invalid_argument("MoteTimingModel: negative distance");
  double rtt = 2.0 * sim::propagation_cycles(distance_ft);
  for (int edge = 0; edge < 4; ++edge) {
    rtt += config_.edge_base_cycles +
           rng.uniform(0.0, config_.edge_jitter_cycles);
  }
  return rtt;
}

double MoteTimingModel::min_possible_cycles() const {
  return 4.0 * config_.edge_base_cycles;
}

double MoteTimingModel::max_possible_cycles(double max_distance_ft) const {
  return 4.0 * (config_.edge_base_cycles + config_.edge_jitter_cycles) +
         2.0 * sim::propagation_cycles(max_distance_ft);
}

RttExchange sample_rtt_exchange(const MoteTimingModel& model,
                                double distance_ft, double mac_delay_cycles,
                                util::Rng& rng) {
  if (distance_ft < 0.0 || mac_delay_cycles < 0.0)
    throw std::invalid_argument("sample_rtt_exchange: negative input");
  const auto& cfg = model.config();
  const auto edge = [&]() {
    return cfg.edge_base_cycles + rng.uniform(0.0, cfg.edge_jitter_cycles);
  };
  const double flight = sim::propagation_cycles(distance_ft);

  RttExchange x;
  // Request: t1 at the sender (after its shift-out delay d1 relative to
  // the true on-air instant), arrival at the receiver after the flight,
  // then the receiver's shift-in delay d2 before t2.
  const double on_air_request = 100.0;  // arbitrary origin
  x.t1_cycles = on_air_request - edge();          // t1 + d1 = on-air time
  x.t2_cycles = on_air_request + flight + edge();  // t2 = arrival + d2
  // The receiver spends arbitrary MAC/processing time before replying.
  const double on_air_reply = x.t2_cycles + mac_delay_cycles;
  x.t3_cycles = on_air_reply - edge();
  x.t4_cycles = on_air_reply + flight + edge();
  return x;
}

namespace {
void check_calibration(std::size_t samples, double max_distance_ft) {
  if (samples == 0)
    throw std::invalid_argument("calibrate_rtt: need at least one sample");
  if (max_distance_ft < 0.0)
    throw std::invalid_argument("calibrate_rtt: negative distance");
}

/// One exchange of the calibration experiment: a uniform distance, then an
/// honest RTT at it.
double calibration_rtt(const MoteTimingModel& model, double max_distance_ft,
                       util::Rng& rng) {
  const double d = rng.uniform(0.0, max_distance_ft);
  return model.sample_rtt_cycles(d, rng);
}
}  // namespace

std::vector<double> sample_calibration_rtts(const MoteTimingModel& model,
                                            std::size_t samples,
                                            double max_distance_ft,
                                            util::Rng& rng) {
  check_calibration(samples, max_distance_ft);
  std::vector<double> observed;
  observed.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i)
    observed.push_back(calibration_rtt(model, max_distance_ft, rng));
  return observed;
}

RttCalibration calibrate_rtt(const MoteTimingModel& model,
                             std::size_t samples, double max_distance_ft,
                             util::Rng& rng) {
  check_calibration(samples, max_distance_ft);
  RttCalibration cal;
  cal.x_min_cycles = cal.x_max_cycles =
      calibration_rtt(model, max_distance_ft, rng);
  for (std::size_t i = 1; i < samples; ++i) {
    const double rtt = calibration_rtt(model, max_distance_ft, rng);
    cal.x_min_cycles = std::min(cal.x_min_cycles, rtt);
    cal.x_max_cycles = std::max(cal.x_max_cycles, rtt);
  }
  return cal;
}

}  // namespace sld::ranging
