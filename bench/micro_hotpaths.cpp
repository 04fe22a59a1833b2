// Hot-path microbenchmarks on the standard bench protocol: the MAC
// primitive, multilateration solve, radix event-queue churn, RTT
// sampling, GPSR routing, TESLA chain setup, and a batch of full
// small-scale trials through run_experiment.
//
// Output discipline: every row prints an operation count and a
// deterministic checksum — never a time — so stdout is a pure function of
// (flags, seed), byte-identical across --jobs levels and across --memstats
// on/off, and the golden-summary check covers this bench like any figure
// bench. Wall time, throughput, and the memstats roll-up ride exclusively
// in the --json result.
#include <cmath>
#include <cstdint>
#include <vector>

#include "analysis/formulas.hpp"
#include "bench_common.hpp"
#include "bench_runner.hpp"
#include "core/experiment.hpp"
#include "crypto/siphash.hpp"
#include "crypto/tesla.hpp"
#include "localization/multilateration.hpp"
#include "obs/memstats.hpp"
#include "ranging/rtt.hpp"
#include "routing/gpsr.hpp"
#include "sim/event.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

std::uint64_t checksum_fold(std::uint64_t acc, std::uint64_t v) {
  acc ^= v + 0x9e3779b97f4a7c15ULL + (acc << 6) + (acc >> 2);
  return acc;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = sld::bench::BenchArgs::parse(argc, argv);
  const std::size_t scale = args.fast ? 1 : 10;

  return sld::bench::run_main(
      "micro_hotpaths", args, [&](sld::bench::BenchIteration& it) {
        sld::util::Table table({"workload", "ops", "checksum"});

        // --- siphash over a 64-byte message ------------------------------
        {
          sld::crypto::Key128 key{};
          for (std::uint8_t i = 0; i < 16; ++i) key[i] = i;
          std::vector<std::uint8_t> msg(64, 0xab);
          const std::size_t n = 20'000 * scale;
          std::uint64_t sum = 0;
          for (std::size_t i = 0; i < n; ++i) {
            msg[0] = static_cast<std::uint8_t>(i);
            sum = checksum_fold(sum, sld::crypto::siphash24(key, msg));
          }
          table.row().cell("siphash_64b").cell(n).cell(sum);
        }

        // --- multilateration solve at 4/8/16 references ------------------
        for (const std::size_t nrefs : {4u, 8u, 16u}) {
          sld::util::Rng rng(args.seed);
          const sld::util::Vec2 truth{500, 500};
          sld::localization::LocationReferences refs;
          for (std::uint32_t i = 0; i < nrefs; ++i) {
            const sld::util::Vec2 b{truth.x + rng.uniform(-150, 150),
                                    truth.y + rng.uniform(-150, 150)};
            refs.push_back(
                {i, b, sld::util::distance(truth, b) + rng.uniform(-4, 4)});
          }
          sld::localization::MultilaterationSolver solver;
          const std::size_t n = 2'000 * scale;
          std::uint64_t sum = 0;
          for (std::size_t i = 0; i < n; ++i) {
            const auto r = solver.solve(refs);
            sum = checksum_fold(
                sum, r ? static_cast<std::uint64_t>(
                             std::llround(r->position.x * 16.0 +
                                          r->position.y))
                       : 0);
          }
          table.row()
              .cell("mlat_solve_" + std::to_string(nrefs))
              .cell(n)
              .cell(sum);
        }

        // --- event-queue churn (the radix queue) -------------------------
        // Also the micro-scale memstats subject: push and pop allocate
        // (bucket growth and slot chunks) under the "scheduler" scope, so
        // the per-thread delta around the loop is exactly this workload's
        // allocation bill.
        {
          sld::obs::MemScopeStats before;
          if (args.memstats) {
            sld::obs::Memstats::set_enabled(true);
            before = sld::obs::Memstats::thread_totals_for("scheduler");
          }
          const std::size_t rounds = 3 * scale;
          const std::size_t events = 1000;
          std::uint64_t sum = 0;
          std::uint64_t moves = 0;
          for (std::size_t r = 0; r < rounds; ++r) {
            sld::sim::EventQueue q;
            for (std::size_t i = 0; i < events; ++i)
              q.push(static_cast<sld::sim::SimTime>((i * 7919 + r) % events),
                     []() {});
            while (!q.empty()) {
              sum = checksum_fold(
                  sum, static_cast<std::uint64_t>(q.pop().when));
            }
            moves += q.sift_down_steps();
          }
          table.row().cell("event_churn").cell(rounds * events).cell(sum);
          table.row()
              .cell("event_churn_moves")
              .cell(static_cast<std::size_t>(moves))
              .cell(checksum_fold(0, moves));
          it.add_events(rounds * events);
          if (args.memstats) {
            const auto after =
                sld::obs::Memstats::thread_totals_for("scheduler");
            sld::obs::MemHotTotals t;
            t.enabled = true;
            t.allocs = after.allocs - before.allocs;
            t.alloc_bytes = after.alloc_bytes - before.alloc_bytes;
            t.frees = after.frees - before.frees;
            t.freed_bytes = after.freed_bytes - before.freed_bytes;
            t.max_queue_depth = events;
            t.sift_down_steps = moves;
            it.add_memhot(t);
          }
        }

        // --- RTT sampling -------------------------------------------------
        {
          sld::ranging::MoteTimingModel model;
          sld::util::Rng rng(args.seed + 1);
          const std::size_t n = 10'000 * scale;
          double cycles = 0.0;
          for (std::size_t i = 0; i < n; ++i)
            cycles += model.sample_rtt_cycles(75.0, rng);
          table.row().cell("rtt_sample").cell(n).cell(
              static_cast<std::uint64_t>(cycles));
        }

        // --- GPSR routing on a 300-node topology -------------------------
        {
          sld::util::Rng rng(args.seed + 2);
          sld::sim::DeploymentConfig dc;
          dc.total_nodes = 300;
          dc.beacon_count = 0;
          dc.malicious_beacon_count = 0;
          const auto deployment = sld::sim::deploy_random(dc, rng);
          sld::routing::Topology topo(150.0);
          for (const auto& n : deployment.nodes)
            topo.add_node(n.id, n.position);
          topo.build_links();
          sld::routing::GpsrRouter router(&topo);
          const auto& ids = topo.node_ids();
          const std::size_t n = 5'000 * scale;
          std::uint64_t hops = 0;
          for (std::size_t i = 0; i < n; ++i) {
            const auto src = ids[i % ids.size()];
            const auto dst = ids[(i * 37 + 11) % ids.size()];
            hops += router.route(src, dst).path.size();
          }
          table.row().cell("gpsr_route").cell(n).cell(hops);
        }

        // --- TESLA chain setup -------------------------------------------
        {
          sld::crypto::Key128 seed{};
          seed.fill(0x42);
          const std::size_t n = 20 * scale;
          std::uint64_t sum = 0;
          for (std::size_t i = 0; i < n; ++i) {
            const sld::crypto::TeslaKeyChain chain(seed, 100 + i);
            sum = checksum_fold(sum, chain.commitment()[0]);
          }
          table.row().cell("tesla_chain").cell(n).cell(sum);
        }

        // --- full small trials through run_experiment --------------------
        // Exercises the whole stack (scheduler, channel, detection,
        // revocation) and is where --jobs and --memstats flow end to end:
        // the memstats roll-up merged here is identical at any jobs level.
        {
          sld::core::ExperimentConfig e;
          e.base.deployment.total_nodes = 200;
          e.base.deployment.beacon_count = 20;
          e.base.deployment.malicious_beacon_count = 2;
          e.base.deployment.field = sld::util::Rect::square(450.0);
          e.base.rtt_calibration_samples = 1000;
          e.base.strategy =
              sld::attack::MaliciousStrategyConfig::with_effectiveness(0.3);
          e.base.seed = args.seed;
          e.base.memstats = args.memstats;
          e.trials = args.trials;
          e.jobs = args.jobs;
          const auto agg = sld::core::run_experiment(e);
          it.add_experiment(agg, e.trials);
          table.row()
              .cell("small_trials")
              .cell(static_cast<std::size_t>(agg.total_sched_events))
              .cell(checksum_fold(agg.total_packets,
                                  static_cast<std::uint64_t>(
                                      std::llround(
                                          agg.detection_rate.mean() *
                                          1e6))));
        }

        table.print_csv(it.out(),
                        "Micro hotpaths: deterministic op counts and "
                        "checksums (times ride in --json only)");
      });
}
