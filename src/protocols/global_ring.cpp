// Protocol 5 (Global-Ring), Section 5 -- the journal version, which fixes
// the PODC'14 bug by introducing the l-bar state so that lines of a single
// edge cannot close on each other.
//
// The protocol behaves like Simple-Global-Line, but an l-leader may also
// close its own line into a ring by connecting to a q1 endpoint; both nodes
// then become "blocked" (primed). A blocked node that detects evidence of
// another component (any l, l-bar, w, q1, q0, or another blocked node over
// an inactive edge) becomes double-primed, and a double-primed pair over the
// closing edge backtracks, reopening the cycle. A spanning ring has no other
// components to detect, so it stays closed -- and is quiescent.
#include "protocols/protocols.hpp"

#include "graph/predicates.hpp"
#include "util/saturating.hpp"

#include <array>

namespace netcons::protocols {

ProtocolSpec global_ring() {
  ProtocolBuilder b("Global-Ring");
  const StateId q0 = b.add_state("q0");
  const StateId q1 = b.add_state("q1");
  const StateId q2 = b.add_state("q2");
  const StateId l = b.add_state("l");
  const StateId w = b.add_state("w");
  const StateId lbar = b.add_state("l_bar");
  const StateId lp = b.add_state("l'");
  const StateId lpp = b.add_state("l''");
  const StateId q2p = b.add_state("q2'");
  const StateId q2pp = b.add_state("q2''");
  b.set_initial(q0);

  // Normal behavior begins only after a line has length 2 (edges): a fresh
  // pair gets the guarded leader l_bar, which cannot close a cycle.
  b.add_rule(q0, q0, false, q1, lbar, true);
  b.add_rule(l, q0, false, q2, l, true);
  b.add_rule(lbar, q0, false, q2, l, true);

  // Merging: a w-leader starts a random walk toward an endpoint.
  b.add_rule(l, l, false, q2, w, true);
  b.add_rule(l, lbar, false, q2, w, true);
  b.add_rule(lbar, lbar, false, q2, w, true);
  b.add_rule(w, q2, true, q2, w, true);
  b.add_rule(w, q1, true, q2, l, true);

  // An l connects to a q1 endpoint, possibly turning its own line into a
  // cycle; both nodes become blocked.
  b.add_rule(l, q1, false, lp, q2p, true);

  // Another component detected: a blocked node becomes double-primed.
  const std::array<StateId, 5> witnesses{l, lbar, w, q1, q0};
  for (const StateId y : witnesses) {
    b.add_rule(lp, y, false, lpp, y, false);
    b.add_rule(q2p, y, false, q2pp, y, false);
  }
  b.add_rule(lp, lp, false, lpp, lpp, false);
  b.add_rule(lp, q2p, false, lpp, q2pp, false);
  b.add_rule(q2p, q2p, false, q2pp, q2pp, false);

  // Opening closed cycles: a double-primed endpoint over the closing edge
  // backtracks to the unblocked line states.
  b.add_rule(lpp, q2p, true, l, q1, false);
  b.add_rule(lp, q2pp, true, l, q1, false);
  b.add_rule(lpp, q2pp, true, l, q1, false);

  ProtocolSpec spec;
  spec.protocol = b.build();
  spec.target = [](const Graph& g) { return is_spanning_ring(g); };
  spec.max_steps = [](int n) {
    return step_budget(64, n, 5, 2'000'000);
  };
  spec.notes =
      "Protocol 5 (journal version with the l_bar fix); Theorem 9: constructs a "
      "spanning ring (n >= 3); no running-time bound is claimed.";
  return spec;
}

}  // namespace netcons::protocols
