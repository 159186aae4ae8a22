// Theorem 1's upper-bound protocol: a node-cover variant that activates the
// edge of every node-state-effective transition, yielding a spanning network
// (every node covered by at least one active edge) in Theta(n log n) --
// matching the generic Omega(n log n) lower bound for spanning networks.
//
//   (a, a, 0) -> (b, b, 1)
//   (a, b, 0) -> (b, b, 1)
#include "protocols/protocols.hpp"

#include "graph/predicates.hpp"
#include "util/saturating.hpp"

#include <algorithm>
#include <cmath>

namespace netcons::protocols {

ProtocolSpec spanning_net() {
  ProtocolBuilder b("Spanning-Net");
  const StateId a = b.add_state("a");
  const StateId bb = b.add_state("b");
  b.set_initial(a);

  b.add_rule(a, a, false, bb, bb, true);
  b.add_rule(a, bb, false, bb, bb, true);

  ProtocolSpec spec;
  spec.protocol = b.build();
  spec.target = [](const Graph& g) { return is_spanning_network(g); };
  spec.max_steps = [](int n) {
    return step_budget(4096, n, 1, 1'000'000);  // Theta(n log n) with headroom
  };
  spec.notes = "Theorem 1 upper bound: spanning network in Theta(n log n).";
  return spec;
}

ProtocolSpec preelected_line() {
  ProtocolBuilder b("Preelected-Line");
  const StateId q0 = b.add_state("q0");
  const StateId q1 = b.add_state("q1");
  const StateId l = b.add_state("l");
  b.set_initial(q0);

  // The leader repeatedly attaches the next isolated node and moves onto it.
  b.add_rule(l, q0, false, q1, l, true);

  ProtocolSpec spec;
  spec.protocol = b.build();
  spec.initialize = [l](World& w) { w.set_state(0, l); };
  spec.target = [](const Graph& g) { return is_spanning_line(g); };
  spec.max_steps = [](int n) {
    const auto log_n =
        static_cast<std::uint64_t>(std::max(1.0, std::log(static_cast<double>(n))));
    return step_budget(256 * log_n, n, 2, 1'000'000);  // Theta(n^2 log n) + headroom
  };
  spec.notes =
      "Section 7: the meet-everybody-paced line built from a pre-elected leader; "
      "Theta(n^2 log n), nearly matching the Omega(n^2) line lower bound.";
  return spec;
}

std::vector<ProtocolSpec> line_protocols() {
  std::vector<ProtocolSpec> out;
  out.push_back(simple_global_line());
  out.push_back(fast_global_line());
  out.push_back(faster_global_line());
  return out;
}

}  // namespace netcons::protocols
