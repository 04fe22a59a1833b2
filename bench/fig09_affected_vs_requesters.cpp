// Figure 9: maximum damage N' an optimal attacker can do (choosing P to
// maximize N') versus N_c, for m in {2,4,8} x tau2 in {2,3}. The paper's
// shape: N' rises dramatically at small N_c, peaks, then drops once extra
// requesters mean extra detecting-beacon alerts.
#include <iostream>

#include "analysis/formulas.hpp"
#include "bench_common.hpp"
#include "bench_runner.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  const auto args = sld::bench::BenchArgs::parse(argc, argv);

  return sld::bench::run_main(
      "fig09_affected_vs_requesters", args,
      [&](sld::bench::BenchIteration& it) {
        sld::analysis::ModelParams params;

        sld::util::Table table(
            {"Nc", "m", "tau2", "N_affected_max", "argmax_P"});
        for (const std::size_t m : {8u, 4u, 2u}) {
          for (const std::uint32_t tau2 : {2u, 3u}) {
            params.detecting_ids = m;
            params.alert_threshold = tau2;
            for (std::size_t nc = 2; nc <= 250; nc += 4) {
              params.requesters_per_beacon = nc;
              double argmax = 0.0;
              const double peak =
                  sld::analysis::max_affected_nonbeacon_nodes(params,
                                                              &argmax);
              table.row()
                  .cell(static_cast<long long>(nc))
                  .cell(static_cast<long long>(m))
                  .cell(static_cast<long long>(tau2))
                  .cell(peak)
                  .cell(argmax);
              it.add_events(1);
            }
          }
        }
        table.print_csv(it.out(),
                        "Figure 9: max_P N' vs N_c for m in {2,4,8} x tau2 "
                        "in {2,3} (attacker plays argmax P)");
      });
}
