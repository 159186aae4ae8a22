// Reproduces Figures 3-8 (Section 6): the generic constructors.
//
//  * Figure 3 (the accept/reject loop) + Figure 4 (U/D matching) + Figure 6
//    (counter-addressed reads/writes): Theorem 14's linear-waste
//    constructor, run for several decidable languages; we report draw
//    passes (rejection-loop iterations), useful space, and language
//    membership of the output.
//  * Figure 5 (head direction marks): the line-tape TM execution, with the
//    interaction overhead of distributed head movement quantified.
//  * Figures 7-8 ((U, D, M) partition): the Theorem 15 substrate.
//  * Theorem 16: the logarithmic-waste constructor.
#include "bench_help.hpp"
#include "generic/linear_waste.hpp"
#include "generic/log_waste.hpp"
#include "generic/no_waste.hpp"
#include "protocols/protocols.hpp"
#include "tm/line_tape.hpp"
#include "util/table.hpp"

#include <iostream>

constexpr const char* kUsage =
    "usage: bench_fig3_generic_constructor\n"
    "\n"
    "Figures 3-8: the generic constructors. Takes no flags.\n";

int main(int argc, char** argv) {
  if (netcons::bench::help_requested(argc, argv, kUsage)) return 0;
  using namespace netcons;

  std::cout << "=== Figure 3/4/6 + Theorem 14: linear-waste generic constructor ===\n"
            << "pipeline: partition -> spanning line on U -> draw G(n/2, 1/2) on D\n"
            << "          -> decide L on the line -> accept (release) or redraw\n\n";
  {
    TextTable table({"language", "n", "useful", "draw passes", "steps", "output in L?"});
    const std::vector<tm::GraphLanguage> langs{
        tm::even_edges_language(), tm::connected_language(), tm::has_triangle_language()};
    for (const auto& lang : langs) {
      for (int n : {8, 12, 16}) {
        generic::LinearWasteConstructor ctor(lang, n, 0xF163ull + static_cast<unsigned>(n));
        const auto report = ctor.run_until_stable(2'000'000'000ULL);
        table.add_row({lang.name, TextTable::integer(static_cast<std::uint64_t>(n)),
                       TextTable::integer(static_cast<std::uint64_t>(report.output.order())),
                       TextTable::integer(static_cast<std::uint64_t>(report.draw_passes)),
                       TextTable::integer(report.steps_executed),
                       !report.stabilized        ? "TIMEOUT"
                       : lang.decide(report.output) ? "yes"
                                                     : "NO"});
      }
    }
    std::cout << table << '\n';
  }

  std::cout << "=== Figure 5: TM head simulation on a constructed line ===\n";
  {
    TextTable table({"machine", "input", "TM steps", "interactions", "overhead", "accepted"});
    struct Case {
      tm::TuringMachine machine;
      std::string input;
    };
    for (auto& [machine, input] : {Case{tm::binary_increment(), "010110"},
                                   Case{tm::palindrome(), "0110110"},
                                   Case{tm::zeros_then_ones(), "000111"}}) {
      std::vector<int> cells;
      for (int i = 0; i < static_cast<int>(input.size()) + 2; ++i) cells.push_back(i);
      tm::LineTape tape(machine, cells, input);
      Rng rng(0xF164ull);
      const int n = static_cast<int>(cells.size()) + 4;
      std::uint64_t steps = 0;
      while (!tape.halted() && steps < 50'000'000) {
        const int u = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
        int v = static_cast<int>(rng.below(static_cast<std::uint64_t>(n - 1)));
        if (v >= u) ++v;
        tape.on_interaction(u, v);
        ++steps;
      }
      const double tm_steps =
          static_cast<double>(std::max<std::uint64_t>(1, tape.tm_steps()));
      table.add_row({machine.name, input, TextTable::integer(tape.tm_steps()),
                     TextTable::integer(steps),
                     TextTable::num(static_cast<double>(steps) / tm_steps),
                     tape.accepted() ? "yes" : "no"});
    }
    std::cout << table << '\n';
  }

  std::cout << "=== Figures 7/8 + Theorem 15: (U, D, M) partition substrate ===\n";
  {
    const auto spec = protocols::partition_udm();
    TextTable table({"n", "triples", "waste", "steps"});
    for (int n : {9, 15, 30, 60}) {
      Simulator sim(spec.protocol, n, 0xF165ull);
      Simulator::StabilityOptions options;
      options.max_steps = spec.max_steps(n);
      options.certificate = spec.certificate;
      const auto report = sim.run_until_stable(options);
      const int qu = sim.world().census(*spec.protocol.state_by_name("qu"));
      table.add_row({TextTable::integer(static_cast<std::uint64_t>(n)),
                     TextTable::integer(static_cast<std::uint64_t>(qu)),
                     TextTable::integer(static_cast<std::uint64_t>(n - 3 * qu)),
                     report.stabilized ? TextTable::integer(report.convergence_step)
                                       : "TIMEOUT"});
    }
    std::cout << table << '\n';
  }

  std::cout << "=== Theorem 16: logarithmic-waste constructor ===\n";
  {
    TextTable table({"language", "n", "useful", "memory line", "draw passes", "output in L?"});
    const std::vector<tm::GraphLanguage> langs{tm::even_edges_language(),
                                               tm::triangle_free_language()};
    for (const auto& lang : langs) {
      for (int n : {10, 14}) {
        generic::LogWasteConstructor ctor(lang, n, 0xF166ull + static_cast<unsigned>(n));
        const auto report = ctor.run_until_stable(2'000'000'000ULL);
        table.add_row({lang.name, TextTable::integer(static_cast<std::uint64_t>(n)),
                       TextTable::integer(static_cast<std::uint64_t>(report.useful_space)),
                       TextTable::integer(static_cast<std::uint64_t>(report.memory_length)),
                       TextTable::integer(static_cast<std::uint64_t>(report.draw_passes)),
                       !report.stabilized        ? "TIMEOUT"
                       : lang.decide(report.output) ? "yes"
                                                     : "NO"});
      }
    }
    std::cout << table << '\n';
  }

  std::cout << "=== Theorem 17: no-waste constructor (TM lives inside the output) ===\n";
  {
    TextTable table({"language", "n", "useful", "TM subgraph", "draw passes", "output in L?"});
    const std::vector<tm::GraphLanguage> langs{tm::even_edges_language(),
                                               tm::has_triangle_language()};
    for (const auto& lang : langs) {
      for (int n : {10, 14}) {
        generic::NoWasteConstructor ctor(lang, n, 0xF167ull + static_cast<unsigned>(n));
        const auto report = ctor.run_until_stable(2'000'000'000ULL);
        table.add_row({lang.name, TextTable::integer(static_cast<std::uint64_t>(n)),
                       TextTable::integer(static_cast<std::uint64_t>(report.useful_space)),
                       TextTable::integer(static_cast<std::uint64_t>(report.tm_subgraph_order)),
                       TextTable::integer(static_cast<std::uint64_t>(report.draw_passes)),
                       !report.stabilized        ? "TIMEOUT"
                       : lang.decide(report.output) ? "yes"
                                                     : "NO"});
      }
    }
    std::cout << table << "useful == n throughout: the logarithmic TM subgraph is part of\n"
              << "the constructed network, not discarded scaffolding.\n";
  }
  return 0;
}
