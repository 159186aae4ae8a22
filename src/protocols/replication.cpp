// Protocol 9 (Graph-Replication), Section 5 -- the paper's only randomized
// (PREL) direct constructor: replicates a connected input graph G1 = (V1, E1)
// onto the fresh nodes V2, provided |V2| >= |V1|.
//
// Mechanism (Theorem 13): V1 nodes match 1-1 with V2 nodes; a unique leader
// is elected in V1 by pairwise elimination; the leader performs a random
// walk over V1 (the probability-1/2 swap branch) and, with the other half of
// the coin, freezes the edge under its feet, instructing the two matched V2
// nodes (through the a/d marks) to copy that edge's state. With a unique
// leader exactly one copy operation is in flight at a time, so every E1
// value is eventually copied and never corrupted again.
//
// Output-set note (see protocols.hpp): Qout here is the set of V2 states
// {r0, r, ra, rd, r'}, implementing the Section 3.2 problem statement
// ("the output induced by the active edges between the nodes of V2").
// 12 states; Theta(n^4 log n).
#include "protocols/protocols.hpp"

#include "graph/isomorphism.hpp"
#include "graph/predicates.hpp"
#include "util/saturating.hpp"

#include <algorithm>
#include <cmath>

#include <stdexcept>
#include <vector>

namespace netcons::protocols {

ProtocolSpec replication(const Graph& g1) {
  if (g1.order() < 1) throw std::invalid_argument("replication: empty input graph");
  if (g1.order() >= 2 && !is_connected(g1)) {
    throw std::invalid_argument("replication: input graph must be connected");
  }

  ProtocolBuilder b("Graph-Replication");
  const StateId q0 = b.add_state("q0");
  const StateId r0 = b.add_state("r0");
  const StateId l = b.add_state("l");
  const StateId la = b.add_state("la");
  const StateId ld = b.add_state("ld");
  const StateId f = b.add_state("f");
  const StateId fa = b.add_state("fa");
  const StateId fd = b.add_state("fd");
  const StateId r = b.add_state("r");
  const StateId ra = b.add_state("ra");
  const StateId rd = b.add_state("rd");
  const StateId rp = b.add_state("r'");
  b.set_initial(q0);
  b.set_output_states({r0, r, ra, rd, rp});

  // Matching every u in V1 to a distinct v in V2.
  b.add_rule(q0, r0, false, l, r, true);

  // Leader election in V1 (both edge states).
  for (bool x : {false, true}) b.add_rule(l, l, x, l, f, x);

  // Random walk / copy-freeze coin on inactive edges (copy a non-edge) and
  // active edges (copy an edge).
  b.add_coin_rule(l, f, false, Outcome{ld, fd, false}, Outcome{f, l, false});
  b.add_coin_rule(l, f, true, Outcome{la, fa, true}, Outcome{f, l, true});

  // Marked V1 nodes instruct their matched V2 nodes.
  b.add_rule(la, r, true, la, ra, true);
  b.add_rule(ld, r, true, ld, rd, true);
  b.add_rule(fa, r, true, fa, ra, true);
  b.add_rule(fd, r, true, fd, rd, true);

  // The copy is applied in V2.
  for (bool x : {false, true}) b.add_rule(ra, ra, x, rp, rp, true);
  for (bool x : {false, true}) b.add_rule(rd, rd, x, rp, rp, false);

  // The matched V1 nodes learn that the copy has been performed.
  b.add_rule(rp, la, true, r, l, true);
  b.add_rule(rp, ld, true, r, l, true);
  b.add_rule(rp, fa, true, r, f, true);
  b.add_rule(rp, fd, true, r, f, true);

  // Leader election also covers marked leaders, preventing blocking. The
  // paper's family (l_i, l_j, x) -> (l_i, f_j, x) is instantiated at one
  // orientation per unordered pair (Section 3.1's partial-delta convention).
  for (bool x : {false, true}) {
    b.add_rule(la, l, x, la, f, x);
    b.add_rule(ld, l, x, ld, f, x);
    b.add_rule(la, la, x, la, fa, x);
    b.add_rule(la, ld, x, la, fd, x);
    b.add_rule(ld, ld, x, ld, fd, x);
  }

  ProtocolSpec spec;
  spec.protocol = b.build();

  const Graph input = g1;
  spec.initialize = [input, q0, r0](World& w) {
    const int n1 = input.order();
    if (w.size() < 2 * n1) {
      throw std::invalid_argument("replication: need |V2| >= |V1| (n >= 2|V1|)");
    }
    for (int u = 0; u < n1; ++u) w.set_state(u, q0);
    for (int u = n1; u < w.size(); ++u) w.set_state(u, r0);
    for (const auto& [u, v] : input.edges()) w.set_edge(u, v, true);
  };

  spec.target = [input](const Graph& out) {
    // Strip isolated nodes (unmatched V2 spares); the rest must be a replica.
    std::vector<int> used;
    for (int u = 0; u < out.order(); ++u) {
      if (out.degree(u) > 0) used.push_back(u);
    }
    if (input.order() == 1) return used.empty();
    return are_isomorphic(out.induced(used), input);
  };

  spec.certificate = [q0, l, la, ld, f, fa, fd, r, ra, rd, rp, input](const Protocol&,
                                                                      const World& w) {
    if (w.census(q0) != 0) return false;       // all of V1 matched
    if (w.census(l) != 1) return false;        // unique, unmarked leader
    for (StateId s : {la, ld, fa, fd, ra, rd, rp}) {
      if (w.census(s) != 0) return false;      // no copy operation in flight
    }
    // Recover the matching: every l/f node has exactly one active r-partner.
    const int n1 = input.order();
    std::vector<int> match(static_cast<std::size_t>(n1), -1);
    for (int u = 0; u < n1; ++u) {
      const StateId su = w.state(u);
      if (su != l && su != f) return false;
      int partner = -1;
      for (int v = n1; v < w.size(); ++v) {
        if (w.state(v) == r && w.edge(u, v)) {
          if (partner != -1) return false;
          partner = v;
        }
      }
      if (partner == -1) return false;
      match[static_cast<std::size_t>(u)] = partner;
    }
    // Copy consistency: every V1 edge value equals its matched V2 value.
    for (int u = 0; u < n1; ++u) {
      for (int v = u + 1; v < n1; ++v) {
        if (w.edge(u, v) != w.edge(match[static_cast<std::size_t>(u)],
                                   match[static_cast<std::size_t>(v)])) {
          return false;
        }
      }
    }
    return true;
  };

  spec.max_steps = [](int n) {
    const auto log_n = static_cast<std::uint64_t>(
        std::max<double>(1.0, std::log(static_cast<double>(n))));
    return step_budget(64 * log_n, n, 4, 2'000'000);  // Theta(n^4 log n) + headroom
  };
  spec.notes = "Protocol 9; Theorem 13: Theta(n^4 log n); randomized (PREL).";
  return spec;
}

}  // namespace netcons::protocols
