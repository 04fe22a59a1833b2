// Figure 14: ROC curves — detection rate vs false positive rate for
// N_a in {5, 10} malicious beacons and tau2 in {2, 3, 4}, sweeping tau1.
// Malicious beacons collude to flood alerts against benign beacons, and P
// is chosen by the attacker to maximize N' (as in the paper). Each point
// is one (tau1, tau2, N_a) operating point averaged over --trials runs.
#include <iostream>

#include "analysis/formulas.hpp"
#include "bench_common.hpp"
#include "bench_runner.hpp"
#include "core/experiment.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  const auto args = sld::bench::BenchArgs::parse(argc, argv);
  const std::vector<std::uint32_t> tau1_sweep =
      args.fast ? std::vector<std::uint32_t>{0, 2, 6, 10}
                : std::vector<std::uint32_t>{0, 1, 2, 3, 4, 6, 8, 10, 14, 20};

  return sld::bench::run_main(
      "fig14_roc", args, [&](sld::bench::BenchIteration& it) {
        sld::util::Table table({"Na", "tau2", "tau1", "false_positive_rate",
                                "fp_rate_theory_Nf", "detection_rate",
                                "attacker_P"});
        for (const std::size_t na : {5u, 10u}) {
          for (const std::uint32_t tau2 : {2u, 3u, 4u}) {
            for (const std::uint32_t tau1 : tau1_sweep) {
              sld::core::ExperimentConfig e;
              e.base.deployment.malicious_beacon_count = na;
              e.base.revocation.report_quota = tau1;
              e.base.revocation.alert_threshold = tau2;
              e.base.collusion = true;
              e.base.seed = args.seed + na * 1000 + tau2 * 100 + tau1;
              e.base.memstats = args.memstats;
              e.trials = args.trials;
              e.jobs = args.jobs;

              // The attacker plays the P that maximizes expected damage for
              // this operating point (evaluated at the geometric requester
              // count of the paper deployment, ~60).
              auto params = sld::core::model_params_for(e.base, 60.0);
              double attacker_P = 0.0;
              sld::analysis::max_affected_nonbeacon_nodes(params,
                                                          &attacker_P);
              e.base.strategy =
                  sld::attack::MaliciousStrategyConfig::with_effectiveness(
                      attacker_P);

              const auto agg = sld::core::run_experiment(e);
              it.add_experiment(agg, e.trials);
              // The paper's N_f bound as an analytic overlay (capped at 1).
              const double benign =
                  static_cast<double>(e.base.deployment.beacon_count - na);
              const double fp_theory = std::min(
                  1.0, sld::analysis::false_positive_count(params) / benign);
              table.row()
                  .cell(static_cast<long long>(na))
                  .cell(static_cast<long long>(tau2))
                  .cell(static_cast<long long>(tau1))
                  .cell(agg.false_positive_rate.mean())
                  .cell(fp_theory)
                  .cell(agg.detection_rate.mean())
                  .cell(attacker_P);
            }
          }
        }
        table.print_csv(it.out(),
                        "Figure 14: ROC (detection vs false positives) under "
                        "colluding alert floods, N_a in {5,10}, tau2 in "
                        "{2,3,4}, sweeping tau1");
      });
}
