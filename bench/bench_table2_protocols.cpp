// Reproduces Table 2: every direct constructor of Sections 4 and 5 with its
// state count, measured expected convergence time, and the paper's
// bounds. Sizes are chosen per protocol so the slowest (Omega(n^4)) rows
// stay tractable; the *shape* columns (fitted exponent, mean normalized by
// the proven bound) are what the paper's Theta/O/Omega entries predict.
#include "bench_help.hpp"
#include "analysis/report.hpp"
#include "campaign/campaign.hpp"
#include "protocols/protocols.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

#include <cmath>
#include <cstdlib>
#include <iostream>

namespace {

int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value ? std::atoi(value) : fallback;
}

struct Row {
  netcons::ProtocolSpec spec;
  std::string paper_time;
  std::string paper_lower;
  std::vector<int> ns;
  int trials;
};

}  // namespace

constexpr const char* kUsage =
    "usage: bench_table2_protocols\n"
    "\n"
    "Table 2: every direct constructor against its bounds.\n"
    "Environment: NETCONS_TRIALS (default 10).\n";

int main(int argc, char** argv) {
  if (netcons::bench::help_requested(argc, argv, kUsage)) return 0;
  using namespace netcons;
  const int t = env_int("NETCONS_TRIALS", 10);

  std::vector<Row> rows;
  rows.push_back({protocols::simple_global_line(), "Omega(n^4), O(n^5)", "Omega(n^2)",
                  {8, 12, 16, 24}, t});
  rows.push_back({protocols::fast_global_line(), "O(n^3)", "Omega(n^2)",
                  {16, 24, 32, 48, 64}, t});
  rows.push_back({protocols::faster_global_line(), "open (conjectured faster)", "Omega(n^2)",
                  {16, 24, 32, 48, 64}, t});
  rows.push_back({protocols::cycle_cover(), "Theta(n^2) optimal", "Omega(n^2)",
                  {16, 32, 64, 96, 128}, t});
  rows.push_back({protocols::global_star(), "Theta(n^2 log n) optimal", "Omega(n^2 log n)",
                  {16, 32, 64, 96, 128}, t});
  rows.push_back({protocols::global_ring(), "not analyzed", "Omega(n^2)", {6, 8, 10, 12}, t});
  rows.push_back({protocols::two_rc(), "not analyzed", "Omega(n log n)", {6, 8, 10, 12}, t});
  rows.push_back({protocols::krc(3), "not analyzed", "Omega(n log n)", {8, 10, 12}, t});
  rows.push_back({protocols::c_cliques(3), "not analyzed", "Omega(n log n)", {9, 12, 15}, t});
  rows.push_back({protocols::replication(Graph::ring(4)), "Theta(n^4 log n)", "-",
                  {8, 10, 12, 16}, t});

  std::cout << "=== Table 2: direct constructors (uniform random scheduler) ===\n"
            << "mean convergence steps over " << t << " trials per size\n\n";

  TextTable summary(
      {"protocol", "states", "paper expected time", "paper LB", "fitted exponent", "failures"});

  for (const auto& row : rows) {
    const auto points = campaign::run({.units = {campaign::Unit::protocol("row", row.spec)},
                                       .ns = row.ns,
                                       .trials = row.trials,
                                       .base_seed = 0x7AB2ull})
                            .points;
    TextTable table({"n", "mean steps", "ci95", "min", "max"});
    int failures = 0;
    for (const auto& p : points) {
      failures += p.failures;
      table.add_row({TextTable::integer(static_cast<std::uint64_t>(p.n)),
                     TextTable::num(p.convergence_steps.mean()),
                     TextTable::num(p.convergence_steps.ci95_halfwidth()),
                     TextTable::num(p.convergence_steps.min()),
                     TextTable::num(p.convergence_steps.max())});
    }
    const LinearFit fit = analysis::fit_exponent(points);
    std::cout << "--- " << row.spec.protocol.name() << "  |Q| = "
              << row.spec.protocol.state_count() << "  [" << row.paper_time << "] ---\n"
              << table << "fitted steps ~ n^" << TextTable::num(fit.slope, 2)
              << "  (R^2 = " << TextTable::num(fit.r_squared, 4) << ")\n\n";
    summary.add_row({row.spec.protocol.name(),
                     TextTable::integer(static_cast<std::uint64_t>(
                         row.spec.protocol.state_count())),
                     row.paper_time, row.paper_lower, TextTable::num(fit.slope, 2),
                     TextTable::integer(static_cast<std::uint64_t>(failures))});
  }

  std::cout << "=== Table 2 summary (states column matches the paper; Global-Ring is 10\n"
            << "    as listed in the journal version's Protocol 5 with the l_bar fix) ===\n"
            << summary;
  return 0;
}
