// Protocol 4 (Global-Star), Section 5 -- the paper's introductory example:
// centers attract everything, peripherals repel each other.
//
//   (c, c, 0) -> (c, p, 1)
//   (p, p, 1) -> (p, p, 0)
//   (c, p, 0) -> (c, p, 1)
//
// 2 states, Theta(n^2 log n); optimal in both size (Theorem 6) and time.
// Stable configurations are quiescent.
#include "protocols/protocols.hpp"

#include "graph/predicates.hpp"
#include "util/saturating.hpp"

#include <algorithm>
#include <cmath>

namespace netcons::protocols {

ProtocolSpec global_star() {
  ProtocolBuilder b("Global-Star");
  const StateId c = b.add_state("c");
  const StateId p = b.add_state("p");
  b.set_initial(c);

  b.add_rule(c, c, false, c, p, true);
  b.add_rule(p, p, true, p, p, false);
  b.add_rule(c, p, false, c, p, true);

  ProtocolSpec spec;
  spec.protocol = b.build();
  spec.target = [](const Graph& g) { return is_spanning_star(g); };
  spec.max_steps = [](int n) {
    const auto log_n = static_cast<std::uint64_t>(std::max(1.0, std::log(static_cast<double>(n))));
    return step_budget(256 * log_n, n, 2, 1'000'000);
  };
  spec.notes = "Protocol 4; Theorem 7: Theta(n^2 log n), optimal size and time.";
  return spec;
}

}  // namespace netcons::protocols
