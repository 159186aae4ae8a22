// Ablations of the design choices DESIGN.md calls out:
//
//  1. Degree-doubling (Section 7): protocol size Theta(d) vs constructed
//     degree 2^d -- the "states vs degree" decoupling.
//  2. Scheduler sensitivity: the same protocol under the uniform random
//     scheduler vs a fair round-based permutation scheduler vs a
//     stale-biased scheduler. Correctness is invariant; timing shifts.
//  3. Replication cost vs input size: Theta(n^4 log n) dominated by the
//     unique-leader copying phase.
//  4. kRC state growth: 2(k+1) states buys degree-k connectivity.
#include "bench_help.hpp"
#include "campaign/campaign.hpp"
#include "campaign/registry.hpp"
#include "protocols/protocols.hpp"
#include "util/table.hpp"

#include <iostream>
#include <utility>

constexpr const char* kUsage =
    "usage: bench_ablations\n"
    "\n"
    "Ablations: degree-doubling, scheduler sensitivity, replication cost, kRC state growth.\n"
    "Takes no flags.\n";

int main(int argc, char** argv) {
  if (netcons::bench::help_requested(argc, argv, kUsage)) return 0;
  using namespace netcons;

  std::cout << "=== Ablation 1: degree-doubling -- states vs constructed degree ===\n";
  {
    TextTable table({"d", "states", "target degree 2^d", "n", "steps", "ok"});
    for (int d : {1, 2, 3, 4, 5}) {
      const auto spec = protocols::degree_doubling(d);
      const int n = (1 << d) + 6;
      const auto r = campaign::run_protocol_trial(spec, n, 0xAB1Aull);
      table.add_row({TextTable::integer(static_cast<std::uint64_t>(d)),
                     TextTable::integer(static_cast<std::uint64_t>(spec.protocol.state_count())),
                     TextTable::integer(std::uint64_t{1} << d),
                     TextTable::integer(static_cast<std::uint64_t>(n)),
                     TextTable::integer(r.value),
                     r.success ? "yes" : "NO"});
    }
    std::cout << table << "states grow linearly in d while the degree doubles: the maximum\n"
              << "degree of the target is not a lower bound on protocol size (Section 7).\n\n";
  }

  std::cout << "=== Ablation 2: scheduler sensitivity (Global-Star, n = 24) ===\n";
  {
    TextTable table({"scheduler", "mean steps (10 seeds)", "all stabilized to star"});
    const ProtocolSpec spec = protocols::global_star();
    for (const auto& [scheduler, label] : {std::pair{"uniform", "uniform random"},
                                           std::pair{"permutation", "random permutation rounds"},
                                           std::pair{"stale-biased", "stale-biased 0.5"}}) {
      const campaign::SchedulerFactory make = campaign::make_scheduler(scheduler)->make;
      RunningStats stats;
      bool all_ok = true;
      for (int seed = 0; seed < 10; ++seed) {
        const auto r = campaign::run_protocol_trial(
            spec, 24, trial_seed(0xAB2Bull, static_cast<std::uint64_t>(seed)), make);
        all_ok = all_ok && r.success;
        stats.add(static_cast<double>(r.value));
      }
      table.add_row({label, TextTable::num(stats.mean()), all_ok ? "yes" : "NO"});
    }
    std::cout << table << "correctness only needs fairness (the proofs' assumption); the\n"
              << "uniform scheduler is merely the timing model.\n\n";
  }

  std::cout << "=== Ablation 3: replication cost vs input size ===\n";
  {
    TextTable table({"|V1|", "n", "mean steps (4 seeds)", "ok"});
    for (int v1 : {3, 4, 5, 6}) {
      const auto spec = protocols::replication(Graph::ring(v1));
      const int n = 2 * v1;
      RunningStats stats;
      bool all_ok = true;
      for (int seed = 0; seed < 4; ++seed) {
        const auto r = campaign::run_protocol_trial(
            spec, n, trial_seed(0xAB3Cull, static_cast<std::uint64_t>(seed)));
        all_ok = all_ok && r.success;
        stats.add(static_cast<double>(r.value));
      }
      table.add_row({TextTable::integer(static_cast<std::uint64_t>(v1)),
                     TextTable::integer(static_cast<std::uint64_t>(n)),
                     TextTable::num(stats.mean()), all_ok ? "yes" : "NO"});
    }
    std::cout << table << '\n';
  }

  std::cout << "=== Ablation 4: kRC state budget vs degree ===\n";
  {
    TextTable table({"k", "states 2(k+1)", "n", "steps", "ok"});
    for (int k : {2, 3, 4}) {
      const auto spec = protocols::krc(k);
      const int n = 4 * k;
      const auto r = campaign::run_protocol_trial(spec, n, 0xAB4Dull);
      table.add_row({TextTable::integer(static_cast<std::uint64_t>(k)),
                     TextTable::integer(static_cast<std::uint64_t>(spec.protocol.state_count())),
                     TextTable::integer(static_cast<std::uint64_t>(n)),
                     TextTable::integer(r.value),
                     r.success ? "yes" : "NO"});
    }
    std::cout << table;
  }
  return 0;
}
