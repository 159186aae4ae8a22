// Protocols 6 and 7 (2RC and kRC), Section 5.
//
// State invariant: a node in q_i or l_i has active degree exactly i (l_i are
// leader states; every component keeps at least one leader). Nodes grow
// their degree toward k; leaders move around their component by swapping and
// eliminate each other pairwise. A full (degree-k) leader that detects
// another component (an inactive-edge encounter with q0, a leader, or
// another full leader) connects to it, entering the over-full state l_{k+1},
// and then sheds one of its other neighbors -- the mechanism that opens
// closed k-regular components so everything can merge into one connected
// spanning k-regular network (Theorems 10 and 11).
//
// The paper's parametrized rule families quantify over both orientations of
// each pair; per the Section 3.1 convention delta must be defined at exactly
// one, so we instantiate the canonical orientation (higher index first).
//
// Stable configurations are NOT quiescent (the unique leader keeps swapping
// through its component forever), so the spec carries a certificate proven
// by the structure above: unique leader in l_1..l_k, no q0, index == degree
// everywhere, no inactive edge between two deficient nodes, and a connected
// spanning active graph. No rule can then ever modify an edge.
#include "protocols/protocols.hpp"

#include "graph/predicates.hpp"
#include "util/saturating.hpp"

#include <stdexcept>
#include <vector>

namespace netcons::protocols {

ProtocolSpec krc(int k) {
  if (k < 2) throw std::invalid_argument("krc: need k >= 2");
  ProtocolBuilder b("kRC(k=" + std::to_string(k) + ")");

  // q0..qk then l1..l_{k+1}: 2(k+1) states.
  std::vector<StateId> q(static_cast<std::size_t>(k) + 1);
  std::vector<StateId> l(static_cast<std::size_t>(k) + 2);  // l[0] unused
  for (int i = 0; i <= k; ++i)
    q[static_cast<std::size_t>(i)] = b.add_state("q" + std::to_string(i));
  for (int i = 1; i <= k + 1; ++i)
    l[static_cast<std::size_t>(i)] = b.add_state("l" + std::to_string(i));
  b.set_initial(q[0]);

  auto Q = [&](int i) { return q[static_cast<std::size_t>(i)]; };
  auto L = [&](int i) { return l[static_cast<std::size_t>(i)]; };

  // Two isolated nodes connect; one becomes a leader (symmetry coin).
  b.add_rule(Q(0), Q(0), false, Q(1), L(1), true);

  // Deficient non-leaders connect (j <= i canonical; j = 0 attaches isolated
  // nodes).
  for (int i = 1; i < k; ++i) {
    for (int j = 0; j <= i; ++j) {
      b.add_rule(Q(i), Q(j), false, Q(i + 1), Q(j + 1), true);
    }
  }

  // Two deficient leaders connect; one leader survives.
  for (int i = 1; i < k; ++i) {
    for (int j = 1; j <= i; ++j) {
      b.add_rule(L(i), L(j), false, L(i + 1), Q(j + 1), true);
    }
  }

  // A deficient leader connects to a deficient non-leader; the leader role
  // jumps onto the attached node.
  for (int i = 1; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      b.add_rule(L(i), Q(j), false, Q(i + 1), L(j + 1), true);
    }
  }

  // Swapping: leaders keep moving inside components.
  for (int i = 1; i <= k; ++i) {
    for (int j = 1; j <= k; ++j) {
      b.add_rule(L(i), Q(j), true, Q(i), L(j), true);
    }
  }

  // Leader elimination across an active edge (j <= i canonical).
  for (int i = 1; i <= k; ++i) {
    for (int j = 1; j <= i; ++j) {
      b.add_rule(L(i), L(j), true, Q(i), L(j), true);
    }
  }

  // Opening k-regular components in the presence of other components.
  b.add_rule(L(k), Q(0), false, L(k + 1), Q(1), true);
  for (int i = 1; i < k; ++i) {
    b.add_rule(L(k), L(i), false, L(k + 1), Q(i + 1), true);
  }
  b.add_rule(L(k), L(k), false, L(k + 1), L(k + 1), true);

  // Shedding a neighbor afterwards (l_0 is read as q_0, cf. 2RC's explicit
  // (l3, l1, 1) -> (l2, q0, 0)).
  b.add_rule(L(k + 1), Q(1), true, L(k), Q(0), false);
  for (int i = 2; i <= k; ++i) {
    b.add_rule(L(k + 1), Q(i), true, L(k), L(i - 1), false);
  }
  b.add_rule(L(k + 1), L(1), true, L(k), Q(0), false);
  for (int i = 2; i <= k; ++i) {
    b.add_rule(L(k + 1), L(i), true, L(k), L(i - 1), false);
  }
  b.add_rule(L(k + 1), L(k + 1), true, L(k), L(k), false);

  ProtocolSpec spec;
  spec.protocol = b.build();
  spec.target = [k](const Graph& g) { return is_k_regular_connected_relaxed(g, k); };

  const StateId q0_id = Q(0);
  const StateId l_first = L(1);
  const StateId l_overfull = L(k + 1);
  spec.certificate = [k, q0_id, l_first, l_overfull](const Protocol&, const World& w) {
    if (w.census(q0_id) != 0) return false;
    if (w.census(l_overfull) != 0) return false;
    int leaders = 0;
    for (StateId s = l_first; s < l_overfull; ++s) leaders += w.census(s);
    if (leaders != 1) return false;
    // index == degree for every node; collect deficient nodes.
    std::vector<int> deficient;
    for (int u = 0; u < w.size(); ++u) {
      const StateId s = w.state(u);
      const int index = (s >= l_first) ? (s - l_first + 1) : s;  // q_i are 0..k
      if (index != w.active_degree(u)) return false;
      if (w.active_degree(u) < k) deficient.push_back(u);
    }
    if (static_cast<int>(deficient.size()) > k - 1) return false;
    for (std::size_t a = 0; a < deficient.size(); ++a) {
      for (std::size_t c = a + 1; c < deficient.size(); ++c) {
        if (!w.edge(deficient[a], deficient[c])) return false;
      }
    }
    return is_connected(w.active_graph());
  };
  spec.max_steps = [](int n) {
    return step_budget(64, n, 5, 2'000'000);
  };
  spec.notes = "Protocols 6/7; Theorems 10/11. Certificate required (leader swaps forever).";
  return spec;
}

ProtocolSpec two_rc() { return krc(2); }

}  // namespace netcons::protocols
