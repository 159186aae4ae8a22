// The paper's motivating scenario (Section 1.1): nanoscale devices injected
// into a circulatory system. The devices cannot control their mobility --
// the blood flow (here: the uniform random scheduler) decides who meets
// whom -- yet they must self-organize to be useful:
//
//   1. A spanning star: one device becomes the aggregation hub that every
//      other device reports to (the paper's introductory construction).
//   2. A spanning line: the backbone ordering that Section 6 exploits to
//      simulate a Turing machine -- i.e., the precondition for the devices
//      to run arbitrary distributed computations.
//   3. Partition into c-cliques: non-interfering treatment cells of fixed
//      size c that can operate independently (Section 5's motivation for
//      many small components).
//
// Each stage reports its convergence time in interactions, illustrating the
// cost ordering the paper proves: stars (~n^2 log n) < lines (n^3..n^5)
// under the same contact dynamics.
#include "campaign/campaign.hpp"
#include "graph/predicates.hpp"
#include "protocols/protocols.hpp"
#include "util/table.hpp"

#include <cstdlib>
#include <iostream>

int main(int argc, char** argv) {
  using namespace netcons;
  const int n = argc > 1 ? std::atoi(argv[1]) : 21;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;

  std::cout << "nanomedicine scenario: " << n
            << " devices drifting in a well-mixed medium\n\n";
  TextTable table({"stage", "protocol", "states", "interactions", "achieved"});

  {
    const auto spec = protocols::global_star();
    const auto r = campaign::run_protocol_trial(spec, n, seed);
    table.add_row({"aggregation hub", spec.protocol.name(),
                   TextTable::integer(static_cast<std::uint64_t>(spec.protocol.state_count())),
                   TextTable::integer(r.value),
                   r.success ? "spanning star" : "FAILED"});
  }
  {
    const auto spec = protocols::fast_global_line();
    const auto r = campaign::run_protocol_trial(spec, n, seed + 1);
    table.add_row({"compute backbone", spec.protocol.name(),
                   TextTable::integer(static_cast<std::uint64_t>(spec.protocol.state_count())),
                   TextTable::integer(r.value),
                   r.success ? "spanning line" : "FAILED"});
  }
  {
    const auto spec = protocols::c_cliques(3);
    const auto r = campaign::run_protocol_trial(spec, n, seed + 2);
    table.add_row({"treatment cells", spec.protocol.name(),
                   TextTable::integer(static_cast<std::uint64_t>(spec.protocol.state_count())),
                   TextTable::integer(r.value),
                   r.success ? "clique partition" : "FAILED"});
  }

  std::cout << table
            << "\nAll three organizations emerged from identical, anonymous devices\n"
            << "with no control over their own mobility -- only local pairwise rules.\n";
  return 0;
}
