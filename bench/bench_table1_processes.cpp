// Reproduces Table 1: expected time to convergence of the seven fundamental
// probabilistic processes of Section 3.3 (Propositions 1-7).
//
// For each process we measure the mean number of scheduler steps to
// completion over many trials and sizes, print it against the closed-form
// expectation (exact where the proposition pins it down), and fit the
// power-law exponent to confirm the Theta-shape.
#include "bench_help.hpp"
#include "analysis/report.hpp"
#include "campaign/campaign.hpp"
#include "processes/processes.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

#include <cstdlib>
#include <iostream>

namespace {

int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value ? std::atoi(value) : fallback;
}

}  // namespace

constexpr const char* kUsage =
    "usage: bench_table1_processes\n"
    "\n"
    "Table 1: the seven fundamental processes.\n"
    "Environment: NETCONS_TRIALS (default 25).\n";

int main(int argc, char** argv) {
  if (netcons::bench::help_requested(argc, argv, kUsage)) return 0;
  using namespace netcons;
  const int trials = env_int("NETCONS_TRIALS", 25);
  const std::vector<int> ns{16, 24, 32, 48, 64, 96};

  std::cout << "=== Table 1: basic probabilistic processes (uniform random scheduler) ===\n"
            << "steps are sequential interactions; mean over " << trials
            << " trials; theory = closed form of Propositions 1-7\n\n";

  TextTable summary({"process", "paper Theta", "fitted exponent", "R^2", "mean/theory @ n=64"});
  int total_failures = 0;

  for (const auto& spec : all_processes()) {
    TextTable table({"n", "mean steps", "ci95", "theory", "mean/theory"});
    const auto points = campaign::run({.units = {campaign::Unit::process(spec)},
                                       .ns = ns,
                                       .trials = trials,
                                       .base_seed = 0x71B1ull})
                            .points;
    double ratio_at_64 = 0;
    for (const auto& p : points) {
      if (p.failures > 0) {
        std::cerr << "WARNING: " << spec.name << " n=" << p.n << ": " << p.failures << '/'
                  << p.trials << " trials failed (timeout or error); stats cover the remainder\n";
        if (!p.first_error.empty()) {
          std::cerr << "         first error: " << p.first_error << '\n';
        }
        total_failures += p.failures;
      }
      const double theory_value = spec.expected_steps(static_cast<std::uint64_t>(p.n));
      const double ratio = p.convergence_steps.mean() / theory_value;
      if (p.n == 64) ratio_at_64 = ratio;
      table.add_row({TextTable::integer(static_cast<std::uint64_t>(p.n)),
                     TextTable::num(p.convergence_steps.mean()),
                     TextTable::num(p.convergence_steps.ci95_halfwidth()),
                     TextTable::num(theory_value), TextTable::num(ratio, 3)});
    }
    const LinearFit fit = analysis::fit_exponent(points);
    std::cout << "--- " << spec.name << "  [" << spec.theta << "]"
              << (spec.expectation_exact ? "  (exact expectation)" : "  (shape reference)")
              << " ---\n"
              << table << "fitted steps ~ n^" << TextTable::num(fit.slope, 2)
              << "  (R^2 = " << TextTable::num(fit.r_squared, 4) << ")\n\n";
    summary.add_row({spec.name, spec.theta, TextTable::num(fit.slope, 2),
                     TextTable::num(fit.r_squared, 4), TextTable::num(ratio_at_64, 3)});
  }

  std::cout << "=== Table 1 summary ===\n" << summary;
  return total_failures == 0 ? 0 : 1;
}
