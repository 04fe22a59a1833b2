// Extension bench (paper §6 future work): distributed revocation without
// the base station. The detection phase runs unchanged; every alert is
// then replayed as a one-hop local *vote* instead of a base-station
// report, and each node aggregates only the votes whose reporters it can
// physically hear. Compared against the centralized scheme on the same
// trials: how much revocation coverage is lost by going local, and how
// well the distinct-voter threshold resists colluding floods.
#include <iostream>
#include <unordered_map>

#include "bench_common.hpp"
#include "bench_runner.hpp"
#include "core/executor.hpp"
#include "core/secure_localization.hpp"
#include "revocation/distributed.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

struct DistributedOutcome {
  double malicious_coverage = 0.0;  // avg frac of in-range listeners that
                                    // blacklist a malicious beacon
  double benign_wrongly_blacklisted = 0.0;  // avg count per listener
};

DistributedOutcome evaluate(const sld::core::SecureLocalizationSystem& system,
                            const sld::core::TrialSummary& summary,
                            const sld::revocation::DistributedConfig& cfg) {
  const auto& deployment = system.deployment();
  const double range = deployment.config.comm_range_ft;

  // Reporter positions (all reporters are beacons).
  std::unordered_map<sld::sim::NodeId, sld::util::Vec2> beacon_pos;
  std::unordered_map<sld::sim::NodeId, bool> beacon_malicious;
  for (const auto* b : deployment.beacons()) {
    beacon_pos[b->id] = b->position;
    beacon_malicious[b->id] = b->malicious;
  }

  DistributedOutcome out;
  sld::util::RunningStat coverage;
  sld::util::RunningStat wrong;

  // Every node in the field is a listener.
  for (const auto& listener : deployment.nodes) {
    sld::revocation::VoteAggregator agg(cfg);
    for (const auto& vote : summary.raw.alert_log) {
      const auto it = beacon_pos.find(vote.reporter);
      if (it == beacon_pos.end()) continue;
      if (sld::util::distance(listener.position, it->second) > range)
        continue;  // out of earshot
      agg.on_vote(vote.reporter, vote.target);
    }
    int wrongly = 0;
    for (const auto target : agg.blacklist()) {
      const auto mit = beacon_malicious.find(target);
      if (mit != beacon_malicious.end() && !mit->second) ++wrongly;
    }
    wrong.add(wrongly);
    // Coverage: for each malicious beacon in range of this listener, did
    // the listener blacklist it?
    for (const auto* m : deployment.malicious_beacons()) {
      if (sld::util::distance(listener.position, m->position) > range)
        continue;
      coverage.add(agg.is_blacklisted(m->id) ? 1.0 : 0.0);
    }
  }
  out.malicious_coverage = coverage.mean();
  out.benign_wrongly_blacklisted = wrong.mean();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = sld::bench::BenchArgs::parse(argc, argv);

  return sld::bench::run_main(
      "ext_distributed_revocation", args,
      [&](sld::bench::BenchIteration& it) {
        sld::util::Table table({"collusion", "vote_threshold",
                                "centralized_detection",
                                "centralized_fp_rate", "distributed_coverage",
                                "distributed_wrong_per_node"});

        for (const bool collusion : {false, true}) {
          for (const std::uint32_t threshold : {2u, 3u, 4u}) {
            // Each trial's local-vote replay needs the live system, so it
            // runs inside the run_indexed worker; the fold below walks the
            // results in index order, keeping stdout byte-identical at any
            // --jobs level.
            struct TrialResult {
              sld::core::TrialSummary summary;
              DistributedOutcome dist;
            };
            const auto results = sld::core::run_indexed(
                args.trials, args.jobs, [&](std::size_t t) {
                  sld::core::SystemConfig config;
                  config.strategy = sld::attack::MaliciousStrategyConfig::
                      with_effectiveness(0.5);
                  config.collusion = collusion;
                  config.seed = args.seed + t * 31 + threshold;
                  config.memstats = args.memstats;
                  sld::core::SecureLocalizationSystem system(config);
                  TrialResult r;
                  r.summary = system.run();
                  sld::revocation::DistributedConfig dcfg;
                  dcfg.vote_threshold = threshold;
                  r.dist = evaluate(system, r.summary, dcfg);
                  return r;
                });

            sld::util::RunningStat cd, cf, dc_cov, dc_wrong;
            for (const auto& r : results) {
              it.add_trial(r.summary);
              cd.add(r.summary.detection_rate);
              cf.add(r.summary.false_positive_rate);
              dc_cov.add(r.dist.malicious_coverage);
              dc_wrong.add(r.dist.benign_wrongly_blacklisted);
            }
            table.row()
                .cell(collusion ? "yes" : "no")
                .cell(static_cast<long long>(threshold))
                .cell(cd.mean())
                .cell(cf.mean())
                .cell(dc_cov.mean())
                .cell(dc_wrong.mean());
          }
        }
        table.print_csv(it.out(),
                        "Extension: distributed (local-vote) revocation vs "
                        "the centralized base-station scheme, P = 0.5");
      });
}
