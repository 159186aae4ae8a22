// Protocol 8 (c-Cliques), Section 5: partition the population into
// floor(n/c) cliques of order c.
//
// Mechanism (Theorem 12): chain leaders l_0..l_{c-2} attract isolated nodes
// (or swallow smaller leaders, whose old followers are released) until their
// component has c nodes; the leader then walks the l-bar chain converting
// its plain followers f into counter-followers 1..c-1, which connect to each
// other to complete the clique. Counter-followers cannot distinguish
// followers of other components, so wrong cross-component edges can appear;
// the home leader l perpetually visits its followers (l <-> l'_i via the
// placeholder r) and two visiting leaders meeting across an active edge
// certify that edge as wrong and deactivate it.
//
// Stable configurations are NOT quiescent (leaders visit forever); the spec
// carries a structural certificate: every component is a complete c-clique
// in a valid role pattern (leader home, or mid-visit), plus at most one
// inert leftover chain component of order < c.
//
// Requires c >= 3 (the paper's state chart assumes it; c = 2 would be the
// maximum-matching process). Size: 5c - 3 states, as the paper reports.
#include "protocols/protocols.hpp"

#include "graph/predicates.hpp"
#include "util/saturating.hpp"

#include <stdexcept>
#include <vector>

namespace netcons::protocols {

ProtocolSpec c_cliques(int c) {
  if (c < 3) throw std::invalid_argument("c_cliques: need c >= 3 (c = 2 is maximum matching)");
  ProtocolBuilder b("c-Cliques(c=" + std::to_string(c) + ")");

  const auto uc = static_cast<std::size_t>(c);
  std::vector<StateId> lc(uc - 1);   // chain leaders l_0 .. l_{c-2}
  std::vector<StateId> fr(uc - 1);   // releasing followers f_1 .. f_{c-2} (index 0 unused)
  std::vector<StateId> lb(uc - 1);   // l-bar_0 .. l-bar_{c-2}
  std::vector<StateId> cnt(uc);      // counter followers 1 .. c-1 (index 0 unused)
  std::vector<StateId> lv(uc);       // visiting leaders l'_1 .. l'_{c-1} (index 0 unused)

  for (int i = 0; i <= c - 2; ++i)
    lc[static_cast<std::size_t>(i)] = b.add_state("l" + std::to_string(i));
  const StateId f = b.add_state("f");
  for (int i = 1; i <= c - 2; ++i)
    fr[static_cast<std::size_t>(i)] = b.add_state("f" + std::to_string(i));
  for (int i = 0; i <= c - 2; ++i)
    lb[static_cast<std::size_t>(i)] = b.add_state("lb" + std::to_string(i));
  const StateId l = b.add_state("l");
  for (int i = 1; i <= c - 1; ++i)
    cnt[static_cast<std::size_t>(i)] = b.add_state("c" + std::to_string(i));
  for (int i = 1; i <= c - 1; ++i)
    lv[static_cast<std::size_t>(i)] = b.add_state("lv" + std::to_string(i));
  const StateId r = b.add_state("r");
  b.set_initial(lc[0]);

  auto LC = [&](int i) { return lc[static_cast<std::size_t>(i)]; };
  auto FR = [&](int i) { return fr[static_cast<std::size_t>(i)]; };
  auto LB = [&](int i) { return lb[static_cast<std::size_t>(i)]; };
  auto CNT = [&](int i) { return cnt[static_cast<std::size_t>(i)]; };
  auto LV = [&](int i) { return lv[static_cast<std::size_t>(i)]; };

  // Attract isolated nodes; completing the component starts the l-bar chain
  // with the last-attracted node going directly to counter state 1.
  for (int i = 0; i < c - 2; ++i) b.add_rule(LC(i), LC(0), false, LC(i + 1), f, true);
  b.add_rule(LC(c - 2), LC(0), false, LB(1), CNT(1), true);

  // Swallow smaller-or-equal leaders to avoid deadlock among incomplete
  // components; the swallowed leader becomes f_j and must first release its
  // j old followers (back to l0) before serving as a plain follower.
  for (int i = 1; i < c - 2; ++i) {
    for (int j = 1; j <= i; ++j) b.add_rule(LC(i), LC(j), false, LC(i + 1), FR(j), true);
  }
  for (int j = 1; j <= c - 2; ++j) b.add_rule(LC(c - 2), LC(j), false, LB(0), FR(j), true);

  // Releasing.
  for (int i = 2; i <= c - 2; ++i) b.add_rule(FR(i), f, true, FR(i - 1), LC(0), false);
  b.add_rule(FR(1), f, true, f, LC(0), false);

  // The l-bar chain converts plain followers to counter state 1.
  for (int i = 0; i < c - 2; ++i) b.add_rule(LB(i), f, true, LB(i + 1), CNT(1), true);
  b.add_rule(LB(c - 2), f, true, l, CNT(1), true);

  // Counter followers connect to (what they hope are) their component's
  // followers (j <= i canonical orientation).
  for (int i = 1; i < c - 1; ++i) {
    for (int j = 1; j <= i; ++j) b.add_rule(CNT(i), CNT(j), false, CNT(i + 1), CNT(j + 1), true);
  }

  // The home leader visits a follower, leaving the placeholder r behind.
  for (int i = 1; i <= c - 1; ++i) b.add_rule(l, CNT(i), true, r, LV(i), true);

  // Two visiting leaders across an active edge: that edge joins two distinct
  // components, so deactivate it and decrement both counters. Counters are
  // >= 2 here: a follower with a wrong edge has at least one
  // follower-connection. (j <= i canonical.)
  for (int i = 2; i <= c - 1; ++i) {
    for (int j = 2; j <= i; ++j) b.add_rule(LV(i), LV(j), true, LV(i - 1), LV(j - 1), false);
  }

  // The leader returns home nondeterministically.
  for (int i = 1; i <= c - 1; ++i) b.add_rule(LV(i), r, true, CNT(i), l, true);

  ProtocolSpec spec;
  spec.protocol = b.build();
  spec.target = [c](const Graph& g) { return is_clique_partition(g, c); };

  const StateId home = l;
  const StateId placeholder = r;
  const StateId vis_full = LV(c - 1);
  const StateId cnt_full = CNT(c - 1);
  const std::vector<StateId> chain = lc;
  const StateId plain_f = f;
  spec.certificate = [c, home, placeholder, vis_full, cnt_full, chain, plain_f](
                         const Protocol&, const World& w) {
    const Graph g = w.active_graph();
    int complete = 0;
    int leftovers = 0;
    for (const auto& comp : g.components()) {
      const auto size = static_cast<int>(comp.size());
      if (size == c) {
        for (std::size_t a = 0; a < comp.size(); ++a) {
          for (std::size_t d = a + 1; d < comp.size(); ++d) {
            if (!w.edge(comp[a], comp[d])) return false;  // must be a clique
          }
        }
        int n_home = 0, n_r = 0, n_vis = 0, n_cnt = 0;
        for (int u : comp) {
          const StateId s = w.state(u);
          if (s == home) {
            ++n_home;
          } else if (s == placeholder) {
            ++n_r;
          } else if (s == vis_full) {
            ++n_vis;
          } else if (s == cnt_full) {
            ++n_cnt;
          } else {
            return false;
          }
        }
        const bool at_home = n_home == 1 && n_r == 0 && n_vis == 0 && n_cnt == c - 1;
        const bool visiting = n_home == 0 && n_r == 1 && n_vis == 1 && n_cnt == c - 2;
        if (!at_home && !visiting) return false;
        ++complete;
      } else if (size < c) {
        if (++leftovers > 1) return false;
        int n_lead = 0, n_f = 0;
        for (int u : comp) {
          const StateId s = w.state(u);
          if (s == chain[static_cast<std::size_t>(size - 1)]) {
            if (w.active_degree(u) != size - 1) return false;
            ++n_lead;
          } else if (s == plain_f) {
            if (w.active_degree(u) != 1) return false;
            ++n_f;
          } else {
            return false;
          }
        }
        if (n_lead != 1 || n_f != size - 1) return false;
      } else {
        return false;
      }
    }
    return complete == w.size() / c;
  };
  spec.max_steps = [](int n) {
    return step_budget(64, n, 4, 2'000'000);
  };
  spec.notes = "Protocol 8; Theorem 12. 5c-3 states; certificate required (leaders visit forever).";
  return spec;
}

}  // namespace netcons::protocols
