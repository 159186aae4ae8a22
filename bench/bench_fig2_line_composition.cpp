// Reproduces Figure 2: "a typical configuration of Protocol Simple-Global-
// Line after some time has passed" -- a collection of lines (each with a
// unique leader, either an endpoint l or a walking w), plus isolated q0
// nodes. We print the component census and leader census as the execution
// progresses, ending in a single spanning line.
#include "bench_help.hpp"
#include "core/trace.hpp"
#include "graph/predicates.hpp"
#include "protocols/protocols.hpp"
#include "util/table.hpp"

#include <iostream>

constexpr const char* kUsage =
    "usage: bench_fig2_line_composition\n"
    "\n"
    "Figure 2: Simple-Global-Line component census over time. Takes no flags.\n";

int main(int argc, char** argv) {
  if (netcons::bench::help_requested(argc, argv, kUsage)) return 0;
  using namespace netcons;
  const int n = 60;
  const auto spec = protocols::simple_global_line();
  const StateId q0 = *spec.protocol.state_by_name("q0");
  const StateId l = *spec.protocol.state_by_name("l");
  const StateId w = *spec.protocol.state_by_name("w");
  Simulator sim(spec.protocol, n, 0xF162ull);

  std::cout << "=== Figure 2: Simple-Global-Line typical configurations (n = " << n
            << ") ===\n\n";
  TextTable table({"step", "isolated q0", "lines", "largest line", "l leaders", "w walkers",
                   "spanning line?"});
  auto emit = [&]() {
    const Graph g = sim.world().active_graph();
    const ComponentCensus census = component_census(g);
    table.add_row(
        {TextTable::integer(sim.steps()),
         TextTable::integer(static_cast<std::uint64_t>(sim.world().census(q0))),
         TextTable::integer(static_cast<std::uint64_t>(census.lines)),
         TextTable::integer(static_cast<std::uint64_t>(census.largest)),
         TextTable::integer(static_cast<std::uint64_t>(sim.world().census(l))),
         TextTable::integer(static_cast<std::uint64_t>(sim.world().census(w))),
         is_spanning_line(sim.world().output_graph(spec.protocol)) ? "yes" : "no"});
  };

  emit();
  Simulator::StabilityOptions options;
  options.max_steps = spec.max_steps(n);
  std::uint64_t next_emit = 1;
  while (sim.steps() < options.max_steps) {
    sim.run(next_emit);  // geometric snapshots: early dynamics are the story
    emit();
    next_emit *= 2;
    if (sim.is_quiescent()) break;
  }
  std::cout << table << "\nInvariant throughout (Theorem 3's proof): every component is a "
               "line with a unique\nleader in state l (endpoint) or w (walking), or an "
               "isolated q0 node.\n";
  return 0;
}
