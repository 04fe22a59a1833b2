// Figure 4: cumulative distribution of the round-trip time between two
// neighbour motes with no replay attack, measured 10,000 times, in CPU
// clock cycles. The paper reports a narrow S-curve whose width is about
// 4.5 bit-times (1728 cycles); x_min and x_max bound the no-attack RTT and
// x_max becomes the local-replay detector's acceptance threshold.
#include <iostream>

#include "bench_common.hpp"
#include "bench_runner.hpp"
#include "ranging/rtt.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  const auto args = sld::bench::BenchArgs::parse(argc, argv);
  const std::size_t samples = args.fast ? 2000 : 10000;

  return sld::bench::run_main(
      "fig04_rtt_cdf", args, [&](sld::bench::BenchIteration& it) {
        std::ostream& out = it.out();
        sld::ranging::MoteTimingModel model;
        sld::util::Rng rng(args.seed);
        const sld::util::EmpiricalCdf cdf(
            sld::ranging::sample_calibration_rtts(model, samples, 150.0, rng));
        const double x_min = cdf.x_min();
        const double x_max = cdf.x_max();
        it.add_events(samples);

        sld::util::Table table({"rtt_cycles", "cumulative_distribution"});
        const double lo = x_min - 100.0;
        const double hi = x_max + 100.0;
        constexpr int kPoints = 60;
        for (int i = 0; i <= kPoints; ++i) {
          const double x = lo + (hi - lo) * i / kPoints;
          table.row().cell(x).cell(cdf.at(x));
        }
        table.print_csv(
            out, "Figure 4: cumulative distribution of RTT (no attack), " +
                     std::to_string(samples) + " measurements");

        out << "\n# summary\n"
            << "x_min_cycles," << x_min << "\n"
            << "x_max_cycles," << x_max << "\n"
            << "span_cycles," << x_max - x_min << "\n"
            << "span_bits," << (x_max - x_min) / 384.0 << "\n"
            << "# paper: span ~ 4.5 bit-times; one bit = 384 CPU cycles\n";
      });
}
