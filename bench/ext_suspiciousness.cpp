// Extension bench: counter-based revocation (§3.1) vs the trust-weighted
// suspiciousness model, replayed over identical alert streams from full
// trials. The counter scheme treats every accepted alert equally, so
// colluding floods buy N_a(tau1+1)/(tau2+1) benign revocations; trust
// weighting discounts reporters who are themselves heavily accused.
//
// Trials fan out over run_indexed (--jobs N): each index runs its full
// trial AND the trust-model replay inside the worker, so the fold below
// only reads finished per-trial results in index order — stdout is
// byte-identical at any jobs level.
#include <iostream>

#include "bench_common.hpp"
#include "bench_runner.hpp"
#include "core/executor.hpp"
#include "core/secure_localization.hpp"
#include "revocation/suspiciousness.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

struct TrialResult {
  sld::core::TrialSummary summary;
  double trust_det = 0.0;
  double trust_fp = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = sld::bench::BenchArgs::parse(argc, argv);

  return sld::bench::run_main(
      "ext_suspiciousness", args, [&](sld::bench::BenchIteration& it) {
        sld::util::Table table({"collusion", "scheme", "detection_rate",
                                "false_positive_rate"});
        for (const bool collusion : {false, true}) {
          const auto results = sld::core::run_indexed(
              args.trials, args.jobs, [&](std::size_t t) {
                sld::core::SystemConfig config;
                config.strategy =
                    sld::attack::MaliciousStrategyConfig::with_effectiveness(
                        0.5);
                config.collusion = collusion;
                config.seed = args.seed + 97 * t;
                config.memstats = args.memstats;
                sld::core::SecureLocalizationSystem system(config);
                TrialResult r;
                r.summary = system.run();

                // Replay the identical alert stream through the trust
                // model (inside the worker: it needs the live deployment).
                std::vector<sld::sim::AlertPayload> alerts;
                alerts.reserve(r.summary.raw.alert_log.size());
                for (const auto& a : r.summary.raw.alert_log)
                  alerts.push_back({a.reporter, a.target});
                const auto trust =
                    sld::revocation::evaluate_suspiciousness(alerts);

                std::size_t mal_revoked = 0, ben_revoked = 0;
                for (const auto* m :
                     system.deployment().malicious_beacons())
                  if (trust.revoked.contains(m->id)) ++mal_revoked;
                for (const auto* b : system.deployment().benign_beacons())
                  if (trust.revoked.contains(b->id)) ++ben_revoked;
                r.trust_det = static_cast<double>(mal_revoked) /
                              static_cast<double>(r.summary.malicious_beacons);
                r.trust_fp = static_cast<double>(ben_revoked) /
                             static_cast<double>(r.summary.benign_beacons);
                return r;
              });

          sld::util::RunningStat counter_det, counter_fp, trust_det,
              trust_fp;
          for (const auto& r : results) {
            it.add_trial(r.summary);
            counter_det.add(r.summary.detection_rate);
            counter_fp.add(r.summary.false_positive_rate);
            trust_det.add(r.trust_det);
            trust_fp.add(r.trust_fp);
          }
          table.row()
              .cell(collusion ? "yes" : "no")
              .cell("counter(tau1=10,tau2=2)")
              .cell(counter_det.mean())
              .cell(counter_fp.mean());
          table.row()
              .cell(collusion ? "yes" : "no")
              .cell("trust_weighted")
              .cell(trust_det.mean())
              .cell(trust_fp.mean());
        }
        table.print_csv(it.out(),
                        "Extension: counter-based vs trust-weighted "
                        "revocation on identical alert streams, P = 0.5");
      });
}
