// Fault-recovery sweep: fault intensity x protocol, via the campaign
// engine's fault axis (src/faults/).
//
// For each (protocol, fault plan) cell we report the re-stabilization rate,
// the mean recovery time (steps after the last fault until the output graph
// last changed), and the damage ledger: output edges destroyed by the
// faults vs. rebuilt vs. residual, plus the fraction of re-stabilized
// trials whose final topology missed the paper's target ("damaged").
//
// The headline result mirrors Fault Tolerant Network Constructors (2019):
// every protocol here reaches a stable configuration again after crashes
// (the model cannot livelock), but only repair-capable rule sets --
// Global-Star's (c, p, 0) -> (c, p, 1) -- restore the target topology;
// the line and cycle-cover constructors keep residual damage.
//
// Exit status enforces the recovery claim: at least two protocols must
// re-stabilize >= 90% of crash:k=1 trials (run under ctest with
// --trials 10 --n 16).
// --json FILE writes throughput metrics for the nightly bench workflow's
// regression gate (tools/compare_bench.py): "throughput" values are
// higher-is-better.
#include "bench_help.hpp"
#include "campaign/campaign.hpp"
#include "campaign/registry.hpp"
#include "faults/fault_plan.hpp"
#include "util/table.hpp"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

constexpr const char* kUsage =
    "usage: bench_fault_recovery [--trials T] [--n N] [--json FILE]\n"
    "\n"
    "Fault-recovery sweep: protocols x fault plans.\n"
    "  --trials T    trials per cell (default 20)\n"
    "  --n N         population (default 24)\n"
    "  --json FILE   write the metrics\n";

int main(int argc, char** argv) {
  if (netcons::bench::help_requested(argc, argv, kUsage)) return 0;
  using namespace netcons;

  int trials = 20;
  int n = 24;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trials") == 0 && i + 1 < argc) trials = std::atoi(argv[++i]);
    if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) n = std::atoi(argv[++i]);
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }

  const std::vector<std::string> protocol_names = {"simple-global-line", "cycle-cover",
                                                   "global-star"};
  // crash:k=1:target=max-degree is the adversarial selector: instead of a
  // random victim it always removes the busiest hub (for Global-Star, the
  // center itself), probing worst-case rather than average-case recovery.
  const std::vector<std::string> plan_names = {
      "crash:k=1",        "crash:k=2",        "crash:k=1:target=max-degree",
      "edge-burst:f=0.1", "edge-burst:f=0.3", "edge-rate:p=1e-3",
      "reset:k=2"};

  campaign::CampaignSpec spec;
  for (const std::string& name : protocol_names) {
    spec.units.push_back(campaign::Unit::protocol(name, *campaign::make_protocol(name)));
  }
  for (const std::string& name : plan_names) {
    spec.faults.push_back(faults::parse_fault_plan(name));
  }
  spec.ns = {n};
  spec.trials = trials;
  spec.base_seed = 0xFA17ull;

  std::cout << "=== Fault recovery sweep: " << protocol_names.size() << " protocols x "
            << plan_names.size() << " fault plans, n = " << n << ", " << trials
            << " trials/cell ===\n\n";

  const campaign::CampaignResult result = campaign::run(spec);

  // restabilized rate of crash:k=1 per protocol, for the exit-status gate.
  std::map<std::string, double> crash_restabilized;

  TextTable table({"protocol", "faults", "restab%", "damaged%", "recovery", "deleted",
                   "repaired", "residual"});
  for (const auto& point : result.points) {
    const double total = static_cast<double>(point.trials);
    const double restabilized =
        total > 0 ? 100.0 * static_cast<double>(point.trials - point.failures) / total : 0.0;
    const double successes = static_cast<double>(point.trials - point.failures);
    const double damaged =
        successes > 0 ? 100.0 * static_cast<double>(point.damaged) / successes : 0.0;
    if (point.faults == "crash:k=1") crash_restabilized[point.unit] = restabilized;
    table.add_row({point.unit, point.faults, TextTable::num(restabilized, 1),
                   TextTable::num(damaged, 1), TextTable::num(point.recovery_steps.mean()),
                   TextTable::num(point.edges_deleted.mean(), 2),
                   TextTable::num(point.edges_repaired.mean(), 2),
                   TextTable::num(point.edges_residual.mean(), 2)});
  }
  std::cout << table;
  std::cout << "\nrecovery = mean steps from last fault to last output-graph change "
               "(re-stabilized trials)\ndeleted/repaired/residual = mean output-graph "
               "edges destroyed by faults / rebuilt / never rebuilt\n\n";

  if (!json_path.empty()) {
    std::ofstream file(json_path);
    file << "{\n  \"bench\": \"fault_recovery\",\n"
         << "  \"trials\": " << result.total_trials << ",\n"
         << "  \"wall_seconds\": " << result.wall_seconds << ",\n"
         << "  \"throughput\": {\n"
         << "    \"faulted_trials_per_second\": "
         << (result.wall_seconds > 0
                 ? static_cast<double>(result.total_trials) / result.wall_seconds
                 : 0.0)
         << "\n  }\n}\n";
    file.flush();
    if (!file) {
      std::cerr << "failed to write " << json_path << '\n';
      return 1;
    }
    std::cout << "wrote " << json_path << '\n';
  }

  int recovering = 0;
  for (const auto& [unit, rate] : crash_restabilized) {
    std::cout << unit << ": crash:k=1 re-stabilization " << TextTable::num(rate, 1) << "%\n";
    if (rate >= 90.0) ++recovering;
  }
  if (recovering < 2) {
    std::cout << "FAIL: expected >= 2 protocols with >= 90% re-stabilization under "
                 "crash:k=1, got "
              << recovering << "\n";
    return 1;
  }
  std::cout << "OK: " << recovering << " protocols re-stabilize under crash:k=1\n";
  return 0;
}
