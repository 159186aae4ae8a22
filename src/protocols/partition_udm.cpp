// Theorem 15's (U, D, M) partition rules -- the substrate that splits the
// population into three matched thirds (U simulates the TM, M's edges form
// the Theta(n^2) tape, D carries the constructed network):
//
//   (q0,  q0,  0) -> (qu', qd,  1)   U-node takes a D-partner, unsatisfied
//   (qu', q0,  0) -> (qu,  qm,  1)   ... then an M-partner from a free node
//   (qu', qu', 0) -> (qu,  qm', 1)   or from another unsatisfied U-node,
//   (qm', qd,  1) -> (qm,  q0,  0)   which releases its D-partner.
//
// Stable configurations are quiescent: no q0/qu'/qm' can remain (any two of
// them still have an applicable rule), except for at most one leftover node.
#include "protocols/protocols.hpp"

#include "util/saturating.hpp"

namespace netcons::protocols {

ProtocolSpec partition_udm() {
  ProtocolBuilder b("Partition-UDM");
  const StateId q0 = b.add_state("q0");
  const StateId qu_p = b.add_state("qu'");
  const StateId qu = b.add_state("qu");
  const StateId qd = b.add_state("qd");
  const StateId qm_p = b.add_state("qm'");
  const StateId qm = b.add_state("qm");
  b.set_initial(q0);

  b.add_rule(q0, q0, false, qu_p, qd, true);
  b.add_rule(qu_p, q0, false, qu, qm, true);
  b.add_rule(qu_p, qu_p, false, qu, qm_p, true);
  b.add_rule(qm_p, qd, true, qm, q0, false);

  ProtocolSpec spec;
  spec.protocol = b.build();
  // Target: a valid (U, D, M) structure -- every qu has exactly one qd and
  // one qm active neighbor, every qd/qm exactly one qu neighbor; at most two
  // nodes wasted (one unfinished qu' with its qd, or one leftover q0).
  spec.target = [](const Graph&) { return true; };  // structure checked via certificate
  spec.certificate = [q0, qu_p, qu, qd, qm_p, qm](const Protocol&, const World& w) {
    if (w.census(qm_p) != 0) return false;
    // At most one unsatisfied node can survive (two would still interact),
    // and a q0 plus a qu' would also still interact.
    if (w.census(q0) + w.census(qu_p) > 1) return false;
    for (int u = 0; u < w.size(); ++u) {
      const StateId s = w.state(u);
      const int deg = w.active_degree(u);
      if (s == qu && deg != 2) return false;
      if ((s == qd || s == qm) && deg != 1) return false;
      if (s == q0 && deg != 0) return false;
      if (s == qu_p && deg != 1) return false;
      if (s == qu) {
        int d_partners = 0;
        int m_partners = 0;
        for (int v : w.active_neighbors(u)) {
          if (w.state(v) == qd) ++d_partners;
          if (w.state(v) == qm) ++m_partners;
        }
        if (d_partners != 1 || m_partners != 1) return false;
      }
    }
    return true;
  };
  spec.max_steps = [](int n) {
    return step_budget(256, n, 2, 1'000'000);
  };
  spec.notes = "Theorem 15 partition substrate; waste <= 2 (n mod 3 leftovers).";
  return spec;
}

}  // namespace netcons::protocols
