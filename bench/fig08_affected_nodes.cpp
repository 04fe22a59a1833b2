// Figure 8: average number N' of non-beacon requesters still accepting a
// malicious beacon's signal after all detected malicious beacons are
// revoked, versus P, for tau2 in {2,3,4} x m in {4,8} (N_c = 100). N' grows
// with tau2 (revocation needs more alerts) and shrinks with m (detection is
// more likely).
#include <iostream>

#include "analysis/formulas.hpp"
#include "bench_common.hpp"
#include "bench_runner.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  const auto args = sld::bench::BenchArgs::parse(argc, argv);

  return sld::bench::run_main(
      "fig08_affected_nodes", args, [&](sld::bench::BenchIteration& it) {
        sld::analysis::ModelParams params;

        sld::util::Table table({"P", "tau2", "m", "N_affected"});
        for (const std::uint32_t tau2 : {2u, 3u, 4u}) {
          for (const std::size_t m : {8u, 4u}) {
            params.alert_threshold = tau2;
            params.detecting_ids = m;
            for (double P = 0.0; P <= 1.0 + 1e-9; P += 0.02) {
              if (P > 1.0) P = 1.0;
              table.row()
                  .cell(P)
                  .cell(static_cast<long long>(tau2))
                  .cell(static_cast<long long>(m))
                  .cell(sld::analysis::affected_nonbeacon_nodes(params, P));
              it.add_events(1);
            }
          }
        }
        table.print_csv(it.out(),
                        "Figure 8: N' vs P for tau2 in {2,3,4} x m in {4,8}, "
                        "N_c=100");
      });
}
