// Protocol 2 (Fast-Global-Line), Section 4.2.
//
// Avoids mergings entirely: when two line leaders meet, the survivor
// *steals* a node from the eliminated leader's line, which falls asleep;
// sleeping lines only ever shrink. 9 states, O(n^3) (Theorem 4).
//
//   (q0, q0, 0) -> (q1, l,  1)
//   (l,  q0, 0) -> (q2, l,  1)
//   (l,  l,  0) -> (q2', l', 1)    winner expands onto the loser's endpoint
//   (l', q2, 1) -> (l'', f1, 0)    detach from the sleeping line (len >= 2)
//   (l', q1, 1) -> (l'', f0, 0)    detach from a sleeping line of one edge
//   (l'', q2', 1) -> (l, q2, 1)    finish the increment
//   (l,  f0, 0) -> (q2, l,  1)     absorb a sleeping isolated node
//   (l,  f1, 0) -> (q2', l', 1)    steal from a sleeping line
//
// Stable configurations are quiescent.
#include "protocols/protocols.hpp"

#include "graph/predicates.hpp"
#include "util/saturating.hpp"

namespace netcons::protocols {

ProtocolSpec fast_global_line() {
  ProtocolBuilder b("Fast-Global-Line");
  const StateId q0 = b.add_state("q0");
  const StateId q1 = b.add_state("q1");
  const StateId q2 = b.add_state("q2");
  const StateId q2p = b.add_state("q2'");
  const StateId l = b.add_state("l");
  const StateId lp = b.add_state("l'");
  const StateId lpp = b.add_state("l''");
  const StateId f0 = b.add_state("f0");
  const StateId f1 = b.add_state("f1");
  b.set_initial(q0);

  b.add_rule(q0, q0, false, q1, l, true);
  b.add_rule(l, q0, false, q2, l, true);
  b.add_rule(l, l, false, q2p, lp, true);
  b.add_rule(lp, q2, true, lpp, f1, false);
  b.add_rule(lp, q1, true, lpp, f0, false);
  b.add_rule(lpp, q2p, true, l, q2, true);
  b.add_rule(l, f0, false, q2, l, true);
  b.add_rule(l, f1, false, q2p, lp, true);

  ProtocolSpec spec;
  spec.protocol = b.build();
  spec.target = [](const Graph& g) { return is_spanning_line(g); };
  spec.max_steps = [](int n) {
    return step_budget(256, n, 3, 1'000'000);  // O(n^3) with headroom
  };
  spec.notes = "Protocol 2; Theorem 4: O(n^3).";
  return spec;
}

}  // namespace netcons::protocols
