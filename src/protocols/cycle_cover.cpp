// Protocol 3 (Cycle-Cover), Section 5.
//
//   (q0, q0, 0) -> (q1, q1, 1)
//   (q1, q0, 0) -> (q2, q1, 1)
//   (q1, q1, 0) -> (q2, q2, 1)
//
// Invariant: a node in state q_i has active degree exactly i. 3 states,
// Theta(n^2), optimal; waste <= 2 (one isolated node or one matched pair may
// be left over). Stable configurations are quiescent.
#include "protocols/protocols.hpp"

#include "graph/predicates.hpp"
#include "util/saturating.hpp"

namespace netcons::protocols {

ProtocolSpec cycle_cover() {
  ProtocolBuilder b("Cycle-Cover");
  const StateId q0 = b.add_state("q0");
  const StateId q1 = b.add_state("q1");
  const StateId q2 = b.add_state("q2");
  b.set_initial(q0);

  b.add_rule(q0, q0, false, q1, q1, true);
  b.add_rule(q1, q0, false, q2, q1, true);
  b.add_rule(q1, q1, false, q2, q2, true);

  ProtocolSpec spec;
  spec.protocol = b.build();
  spec.target = [](const Graph& g) { return is_cycle_cover(g, /*waste=*/2); };
  spec.max_steps = [](int n) {
    return step_budget(256, n, 2, 1'000'000);  // Theta(n^2) with headroom
  };
  spec.notes = "Protocol 3; Theorem 5: Theta(n^2), optimal, waste 2.";
  return spec;
}

}  // namespace netcons::protocols
