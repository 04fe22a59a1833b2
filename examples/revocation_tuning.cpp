// Revocation-threshold tuning — the §3.2 design procedure as a tool.
// Given deployment parameters, it tabulates for each candidate (tau1, tau2)
// pair the quantities a deployer must trade off:
//   P_d   revocation probability of a malicious beacon (at the attacker's
//         damage-maximizing P),
//   N'    expected residual damage at that P,
//   N_f   worst-case benign beacons revoked (wormhole noise + collusion),
//   P_o   probability a benign reporter's quota overflows.
// It then recommends the pair minimizing N_f subject to P_o ~ 0 and
// P_d above a floor — the paper's own selection logic.
//
//   $ ./revocation_tuning
//
#include <cstdio>
#include <initializer_list>

#include "analysis/formulas.hpp"

int main() {
  using namespace sld::analysis;

  ModelParams base;  // paper deployment: N=1000, Nb=100, Na=10, Nw=10
  std::printf("=== revocation threshold tuning (paper section 3.2) ===\n");
  std::printf("N=%zu Nb=%zu Na=%zu Nw=%zu p_d=%.1f m=%zu Nc=%zu\n\n",
              base.total_nodes, base.beacon_count, base.malicious_count,
              base.wormhole_count, base.wormhole_detection_rate,
              base.detecting_ids, base.requesters_per_beacon);

  std::printf("%-6s %-6s %-10s %-10s %-10s %-12s %-10s\n", "tau1", "tau2",
              "P_attack", "P_d", "N'", "N_f", "P_o");

  double best_nf = 1e18;
  std::uint32_t best_tau1 = 0, best_tau2 = 0;
  for (const std::uint32_t tau2 : {1u, 2u, 3u, 4u, 5u}) {
    for (const std::uint32_t tau1 : {2u, 5u, 10u, 15u, 20u}) {
      ModelParams p = base;
      p.report_quota = tau1;
      p.alert_threshold = tau2;

      double attacker_P = 0.0;
      const double damage = max_affected_nonbeacon_nodes(p, &attacker_P);
      const double pd = revocation_probability(p, attacker_P);
      const double nf = false_positive_count(p);
      const double po = report_counter_overflow_probability(p, attacker_P);

      std::printf("%-6u %-6u %-10.3f %-10.3f %-10.3f %-12.2f %-10.2e\n",
                  tau1, tau2, attacker_P, pd, damage, nf, po);

      // Selection: quota must not drop honest alerts, revocation must stay
      // likely, then minimize false positives.
      if (po < 1e-4 && pd > 0.5 && nf < best_nf) {
        best_nf = nf;
        best_tau1 = tau1;
        best_tau2 = tau2;
      }
    }
  }

  if (best_tau1 != 0 || best_tau2 != 0) {
    std::printf("\ngrid scan pick: tau1 = %u, tau2 = %u "
                "(N_f <= %.1f, P_o ~ 0, P_d > 0.5)\n",
                best_tau1, best_tau2, best_nf);
  } else {
    std::printf("\nno pair met the grid scan's constraints.\n");
  }

  // The library's implementation of the same procedure.
  if (const auto choice = choose_thresholds(base)) {
    std::printf("choose_thresholds(): tau1 = %u, tau2 = %u  "
                "(attacker P = %.3f, P_d = %.2f, N' <= %.2f, N_f = %.1f)\n",
                choice->tau1, choice->tau2, choice->attacker_P,
                choice->detection, choice->max_damage,
                choice->false_positives);
  }
  std::printf("paper's choice for this deployment: tau1 = 10, tau2 = 2.\n");
  return 0;
}
