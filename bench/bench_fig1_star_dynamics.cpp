// Reproduces Figure 1: the self-organization of the spanning star.
//
// The figure shows three snapshots: (a) all nodes black (centers), no active
// edges; (b) a few black survivors each with red (peripheral) neighborhoods
// and some red-red edges; (c) one black center attached to all reds, red-red
// edges dissolved. We print the same trajectory as a time series: number of
// centers, center-peripheral edges, peripheral-peripheral edges, and whether
// the configuration is a stable spanning star.
#include "bench_help.hpp"
#include "core/trace.hpp"
#include "graph/predicates.hpp"
#include "protocols/protocols.hpp"
#include "util/table.hpp"

#include <iostream>

constexpr const char* kUsage =
    "usage: bench_fig1_star_dynamics\n"
    "\n"
    "Figure 1: Global-Star self-organization time series. Takes no flags.\n";

int main(int argc, char** argv) {
  if (netcons::bench::help_requested(argc, argv, kUsage)) return 0;
  using namespace netcons;
  const int n = 40;
  const auto spec = protocols::global_star();
  const StateId center = *spec.protocol.state_by_name("c");
  Simulator sim(spec.protocol, n, 0xF161ull);

  std::cout << "=== Figure 1: spanning star self-organization (n = " << n << ") ===\n"
            << "blacks = centers (state c), reds = peripherals (state p)\n\n";

  TextTable table({"step", "blacks", "c-p edges", "p-p edges", "spanning star?"});
  auto emit = [&]() {
    const World& w = sim.world();
    int cp = 0, pp = 0;
    for (int v = 1; v < n; ++v) {
      for (int u = 0; u < v; ++u) {
        if (!w.edge(u, v)) continue;
        const bool uc = w.state(u) == center;
        const bool vc = w.state(v) == center;
        if (uc || vc) {
          ++cp;
        } else {
          ++pp;
        }
      }
    }
    const bool star = is_spanning_star(w.output_graph(spec.protocol));
    table.add_row({TextTable::integer(sim.steps()),
                   TextTable::integer(static_cast<std::uint64_t>(w.census(center))),
                   TextTable::integer(static_cast<std::uint64_t>(cp)),
                   TextTable::integer(static_cast<std::uint64_t>(pp)), star ? "yes" : "no"});
  };

  emit();  // Figure 1(a): all black, no edges
  Simulator::StabilityOptions options;
  options.max_steps = spec.max_steps(n);
  while (true) {
    sim.run(2000);
    emit();
    if (sim.is_quiescent()) break;  // Figure 1(c): stable spanning star
    if (sim.steps() >= options.max_steps) break;
  }
  std::cout << table << "\nfinal census: " << census_summary(spec.protocol, sim.world())
            << "\nstable spanning star reached at step " << sim.last_output_change() << "\n";
  return 0;
}
