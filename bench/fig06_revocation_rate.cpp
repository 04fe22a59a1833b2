// Figure 6: revocation detection rate P_d versus attack effectiveness P.
//  (a) tau2 in {2, 3, 4, 5} with m = 8;
//  (b) m in {1, 2, 4, 8} with tau2 = 4.
// N_c = 100 requesters per beacon (see DESIGN.md "Recovered constants").
#include <iostream>

#include "analysis/formulas.hpp"
#include "bench_common.hpp"
#include "bench_runner.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  const auto args = sld::bench::BenchArgs::parse(argc, argv);

  return sld::bench::run_main(
      "fig06_revocation_rate", args, [&](sld::bench::BenchIteration& it) {
        std::ostream& out = it.out();
        sld::analysis::ModelParams params;  // paper defaults, N_c = 100

        {
          sld::util::Table table({"P", "tau2", "Pd"});
          params.detecting_ids = 8;
          for (const std::uint32_t tau2 : {2u, 3u, 4u, 5u}) {
            params.alert_threshold = tau2;
            for (double P = 0.0; P <= 1.0 + 1e-9; P += 0.02) {
              if (P > 1.0) P = 1.0;
              table.row().cell(P).cell(static_cast<long long>(tau2)).cell(
                  sld::analysis::revocation_probability(params, P));
              it.add_events(1);
            }
          }
          table.print_csv(out,
                          "Figure 6(a): P_d vs P for tau2 in {2,3,4,5}, "
                          "m=8, N_c=100");
        }
        out << "\n";
        {
          sld::util::Table table({"P", "m", "Pd"});
          params.alert_threshold = 4;
          for (const std::size_t m : {1u, 2u, 4u, 8u}) {
            params.detecting_ids = m;
            for (double P = 0.0; P <= 1.0 + 1e-9; P += 0.02) {
              if (P > 1.0) P = 1.0;
              table.row().cell(P).cell(static_cast<long long>(m)).cell(
                  sld::analysis::revocation_probability(params, P));
              it.add_events(1);
            }
          }
          table.print_csv(out,
                          "Figure 6(b): P_d vs P for m in {1,2,4,8}, "
                          "tau2=4, N_c=100");
        }
      });
}
