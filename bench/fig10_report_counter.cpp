// Figure 10: probability P_o that a benign beacon's report counter exceeds
// tau1 (so its honest alerts start being dropped), versus tau1, for N_c in
// {10, 50, 100, 150, 200}. Paper parameters: N = 1000, N_b = 100,
// N_a = 10, N_w = 10, p_d = 0.9, tau2 = 2, m = 8, P = 0.1. The paper picks
// tau1 = 10 as the smallest quota with P_o ~ 0.
#include <iostream>

#include "analysis/formulas.hpp"
#include "bench_common.hpp"
#include "bench_runner.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  const auto args = sld::bench::BenchArgs::parse(argc, argv);

  return sld::bench::run_main(
      "fig10_report_counter", args, [&](sld::bench::BenchIteration& it) {
        sld::analysis::ModelParams params;
        params.wormhole_count = 10;
        params.alert_threshold = 2;
        params.detecting_ids = 8;
        const double P = 0.1;

        sld::util::Table table({"tau1", "Nc", "Po"});
        for (const std::size_t nc : {10u, 50u, 100u, 150u, 200u}) {
          params.requesters_per_beacon = nc;
          for (std::uint32_t tau1 = 0; tau1 <= 20; ++tau1) {
            params.report_quota = tau1;
            table.row()
                .cell(static_cast<long long>(tau1))
                .cell(static_cast<long long>(nc))
                .cell(sld::analysis::report_counter_overflow_probability(
                    params, P));
            it.add_events(1);
          }
        }
        table.print_csv(
            it.out(),
            "Figure 10: P_o (report counter > tau1) vs tau1 for N_c in "
            "{10,50,100,150,200}; N=1000 Nb=100 Na=10 Nw=10 pd=0.9 tau2=2 "
            "m=8 P=0.1");
      });
}
