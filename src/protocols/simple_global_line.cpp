// Protocol 1 (Simple-Global-Line), Section 4.1.
//
//   (q0, q0, 0) -> (q1, l, 1)      two isolated nodes start a line
//   (l,  q0, 0) -> (q2, l, 1)      a line expands towards an isolated node
//   (l,  l,  0) -> (q2, w, 1)      two lines merge; a random walk starts
//   (w,  q2, 1) -> (q2, w, 1)      the walking leader moves along the line
//   (w,  q1, 1) -> (q2, l, 1)      the walk reaches an endpoint
//
// 5 states; expected time Omega(n^4) and O(n^5) (Theorem 3). Stable
// configurations (the spanning line) are quiescent, so no certificate is
// needed.
#include "protocols/protocols.hpp"

#include "graph/predicates.hpp"
#include "util/saturating.hpp"

namespace netcons::protocols {

ProtocolSpec simple_global_line() {
  ProtocolBuilder b("Simple-Global-Line");
  const StateId q0 = b.add_state("q0");
  const StateId q1 = b.add_state("q1");
  const StateId q2 = b.add_state("q2");
  const StateId l = b.add_state("l");
  const StateId w = b.add_state("w");
  b.set_initial(q0);

  b.add_rule(q0, q0, false, q1, l, true);
  b.add_rule(l, q0, false, q2, l, true);
  b.add_rule(l, l, false, q2, w, true);
  b.add_rule(w, q2, true, q2, w, true);
  b.add_rule(w, q1, true, q2, l, true);

  ProtocolSpec spec;
  spec.protocol = b.build();
  spec.target = [](const Graph& g) { return is_spanning_line(g); };
  spec.max_steps = [](int n) {
    return step_budget(64, n, 5, 1'000'000);  // O(n^5) with headroom
  };
  spec.notes = "Protocol 1; Theorem 3: Omega(n^4), O(n^5).";
  return spec;
}

}  // namespace netcons::protocols
