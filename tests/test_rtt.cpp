#include "ranging/rtt.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "sim/time.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace sld::ranging {
namespace {

TEST(TimeConstants, CyclesPerBitIs384) {
  // 7.3728 MHz / 19.2 kbps = 384 exactly, as the paper states.
  EXPECT_DOUBLE_EQ(sim::kCyclesPerBit, 384.0);
}

TEST(MoteTimingModel, SamplesWithinTheoreticalEnvelope) {
  MoteTimingModel model;
  util::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.uniform(0.0, 150.0);
    const double rtt = model.sample_rtt_cycles(d, rng);
    EXPECT_GE(rtt, model.min_possible_cycles());
    EXPECT_LE(rtt, model.max_possible_cycles(150.0));
  }
}

TEST(MoteTimingModel, SpanIsAboutFourPointFiveBits) {
  // The calibrated envelope (ignoring the tiny propagation term) must match
  // the paper's "4.5 bits" span: 4 x 432 = 1728 cycles = 4.5 x 384.
  MoteTimingModel model;
  const double span =
      model.max_possible_cycles(0.0) - model.min_possible_cycles();
  EXPECT_DOUBLE_EQ(span, 4.5 * sim::kCyclesPerBit);
}

TEST(MoteTimingModel, PropagationTermIsTiny) {
  // 150 ft at the speed of light is ~0.15 us, about 1 CPU cycle each way:
  // "the value of D/c ... is negligible".
  const double cycles = sim::propagation_cycles(150.0);
  EXPECT_LT(cycles, 2.0);
  EXPECT_GT(cycles, 0.5);
}

TEST(MoteTimingModel, DistanceShiftsRttOnlySlightly) {
  MoteTimingConfig cfg;
  cfg.edge_jitter_cycles = 0.0;  // isolate the propagation term
  MoteTimingModel model(cfg);
  util::Rng rng(2);
  const double near = model.sample_rtt_cycles(0.0, rng);
  const double far = model.sample_rtt_cycles(150.0, rng);
  EXPECT_GT(far, near);
  EXPECT_LT(far - near, 3.0);
}

TEST(MoteTimingModel, RejectsNegativeInputs) {
  MoteTimingModel model;
  util::Rng rng(3);
  EXPECT_THROW(model.sample_rtt_cycles(-1.0, rng), std::invalid_argument);
  for (double MoteTimingConfig::*field :
       {&MoteTimingConfig::edge_base_cycles,
        &MoteTimingConfig::edge_jitter_cycles}) {
    for (const double value :
         {-1.0, std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity()}) {
      MoteTimingConfig bad;
      bad.*field = value;
      EXPECT_THROW(MoteTimingModel{bad}, std::invalid_argument) << value;
    }
  }
}

TEST(Calibration, TenThousandSamplesReproduceFigure4) {
  MoteTimingModel model;
  util::Rng rng(4);
  const auto cal = calibrate_rtt(model, 10000, 150.0, rng);
  // The theoretical envelope is [5396, 7124] cycles; the empirical extremes
  // of 10,000 Irwin-Hall samples sit somewhat inside it (the corners of a
  // sum of four uniforms are rare), just as the paper's measured x_min and
  // x_max sit inside the hardware's true envelope.
  EXPECT_GE(cal.x_min_cycles, model.min_possible_cycles());
  EXPECT_LE(cal.x_min_cycles, model.min_possible_cycles() + 200.0);
  EXPECT_LE(cal.x_max_cycles, model.max_possible_cycles(150.0));
  EXPECT_GE(cal.x_max_cycles, model.max_possible_cycles(150.0) - 200.0);
  EXPECT_GT(cal.x_max_cycles, cal.x_min_cycles);
}

TEST(Calibration, CdfIsMonotone) {
  MoteTimingModel model;
  util::Rng rng(5);
  const util::EmpiricalCdf cdf(
      sample_calibration_rtts(model, 5000, 150.0, rng));
  double prev = -1.0;
  for (double x = cdf.x_min(); x <= cdf.x_max(); x += 50.0) {
    const double f = cdf.at(x);
    EXPECT_GE(f, prev);
    prev = f;
  }
  EXPECT_DOUBLE_EQ(cdf.at(cdf.x_max()), 1.0);
}

TEST(Calibration, BoundsEqualTheSortedDrawsOfTheSameRng) {
  // calibrate_rtt keeps the extremes while drawing; Figure 4 sorts the
  // draws. Both must consume the same draws and agree on the bounds.
  MoteTimingModel model;
  for (const std::uint64_t seed : {1u, 2u, 77u, 4096u, 123456789u}) {
    for (const std::size_t samples : {1u, 2u, 10000u}) {
      util::Rng bounds_rng(seed);
      util::Rng draws_rng(seed);
      const auto cal = calibrate_rtt(model, samples, 150.0, bounds_rng);
      const auto draws =
          sample_calibration_rtts(model, samples, 150.0, draws_rng);
      ASSERT_EQ(draws.size(), samples);
      const util::EmpiricalCdf cdf(draws);
      EXPECT_EQ(cal.x_min_cycles, cdf.x_min()) << seed << " " << samples;
      EXPECT_EQ(cal.x_max_cycles, cdf.x_max()) << seed << " " << samples;
      EXPECT_EQ(bounds_rng(), draws_rng()) << seed << " " << samples;
    }
  }
}

TEST(Calibration, ReplayLongerThanSpanAlwaysExceedsXmax) {
  // The detector property the paper claims: "we can detect any replayed
  // signal if the delay introduced by this replay is longer than the
  // transmission time of [4.5] bits".
  MoteTimingModel model;
  util::Rng rng(6);
  const auto cal = calibrate_rtt(model, 10000, 150.0, rng);
  // Any replay adding more than 4.5 bit-times (the theoretical envelope
  // width) pushes even the fastest honest RTT past the calibrated x_max,
  // because x_max can never exceed the envelope's upper edge.
  const double span_4_5_bits = 4.5 * sim::kCyclesPerBit;
  for (int i = 0; i < 10000; ++i) {
    const double honest = model.sample_rtt_cycles(rng.uniform(0.0, 150.0), rng);
    EXPECT_GT(honest + span_4_5_bits, cal.x_max_cycles);
  }
}

TEST(Calibration, HonestRttNeverFlagged) {
  // No false positives from the RTT stage between benign neighbours: every
  // honest sample lies within [x_min, x_max] once calibration saturates.
  MoteTimingModel model;
  util::Rng rng(7);
  const auto cal = calibrate_rtt(model, 200000, 150.0, rng);
  for (int i = 0; i < 50000; ++i) {
    const double honest = model.sample_rtt_cycles(rng.uniform(0.0, 150.0), rng);
    EXPECT_LE(honest, cal.x_max_cycles + 2.0);
  }
}

TEST(Calibration, InputValidation) {
  MoteTimingModel model;
  util::Rng rng(8);
  EXPECT_THROW(calibrate_rtt(model, 0, 150.0, rng), std::invalid_argument);
  EXPECT_THROW(calibrate_rtt(model, 10, -1.0, rng), std::invalid_argument);
  EXPECT_THROW(sample_calibration_rtts(model, 0, 150.0, rng),
               std::invalid_argument);
  EXPECT_THROW(sample_calibration_rtts(model, 10, -1.0, rng),
               std::invalid_argument);
}

TEST(RttExchange, MacDelayCancelsOut) {
  // The paper's central claim for the RTT method: (t4-t1)-(t3-t2) removes
  // "the uncertainty introduced by the MAC layer protocol and the
  // processing delay". Sweep MAC delays over five orders of magnitude and
  // check the computed RTT stays inside the hardware envelope.
  MoteTimingModel model;
  util::Rng rng(20);
  for (const double mac : {0.0, 100.0, 1e4, 1e6, 1e8}) {
    for (int i = 0; i < 200; ++i) {
      const auto x = sample_rtt_exchange(model, 100.0, mac, rng);
      EXPECT_GE(x.rtt_cycles(), model.min_possible_cycles());
      EXPECT_LE(x.rtt_cycles(), model.max_possible_cycles(100.0));
    }
  }
}

TEST(RttExchange, TimestampsAreOrdered) {
  MoteTimingModel model;
  util::Rng rng(21);
  const auto x = sample_rtt_exchange(model, 50.0, 5000.0, rng);
  EXPECT_LT(x.t1_cycles, x.t2_cycles);
  EXPECT_LT(x.t2_cycles, x.t3_cycles + model.config().edge_base_cycles +
                             model.config().edge_jitter_cycles);
  EXPECT_LT(x.t3_cycles, x.t4_cycles);
}

TEST(RttExchange, MatchesDirectSampler) {
  // Both paths sample the same distribution.
  MoteTimingModel model;
  util::Rng rng(22);
  util::RunningStat via_exchange, direct;
  for (int i = 0; i < 20000; ++i) {
    via_exchange.add(
        sample_rtt_exchange(model, 75.0, 1e5, rng).rtt_cycles());
    direct.add(model.sample_rtt_cycles(75.0, rng));
  }
  EXPECT_NEAR(via_exchange.mean(), direct.mean(), 15.0);
  EXPECT_NEAR(via_exchange.stddev(), direct.stddev(), 15.0);
}

TEST(RttExchange, Validation) {
  MoteTimingModel model;
  util::Rng rng(23);
  EXPECT_THROW(sample_rtt_exchange(model, -1.0, 0.0, rng),
               std::invalid_argument);
  EXPECT_THROW(sample_rtt_exchange(model, 1.0, -1.0, rng),
               std::invalid_argument);
}

TEST(TimeConversion, CyclesToNs) {
  // 7.3728 cycles = 1 us.
  EXPECT_EQ(sim::cycles_to_ns(7372.8), 1000000);
}

}  // namespace
}  // namespace sld::ranging
