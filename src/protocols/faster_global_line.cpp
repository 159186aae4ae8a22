// Protocol 10 (Faster-Global-Line), Section 7.
//
// The conjectured improvement over Fast-Global-Line: when two leaders meet,
// the loser becomes a follower f and *dissolves its own line* node by node,
// releasing nodes into the recyclable state q that awake leaders absorb
// like q0.
//
//   (q0, q0, 0) -> (q1, l, 1)
//   (l,  q0, 0) -> (q2, l, 1)
//   (l,  q,  0) -> (q2, l, 1)
//   (l,  l,  0) -> (l,  f, 0)     no edge is formed; one leader dies
//   (f,  q2, 1) -> (q,  f, 0)     the dissolving front advances
//   (f,  q1, 1) -> (q,  q, 0)     the line has fully dissolved
//
// 6 states. The paper leaves its running time open; bench_global_line
// measures it against Protocols 1 and 2. Stable configurations are
// quiescent.
#include "protocols/protocols.hpp"

#include "graph/predicates.hpp"
#include "util/saturating.hpp"

namespace netcons::protocols {

ProtocolSpec faster_global_line() {
  ProtocolBuilder b("Faster-Global-Line");
  const StateId q0 = b.add_state("q0");
  const StateId q1 = b.add_state("q1");
  const StateId q2 = b.add_state("q2");
  const StateId q = b.add_state("q");
  const StateId l = b.add_state("l");
  const StateId f = b.add_state("f");
  b.set_initial(q0);

  b.add_rule(q0, q0, false, q1, l, true);
  b.add_rule(l, q0, false, q2, l, true);
  b.add_rule(l, q, false, q2, l, true);
  b.add_rule(l, l, false, l, f, false);
  b.add_rule(f, q2, true, q, f, false);
  b.add_rule(f, q1, true, q, q, false);

  ProtocolSpec spec;
  spec.protocol = b.build();
  spec.target = [](const Graph& g) { return is_spanning_line(g); };
  spec.max_steps = [](int n) {
    return step_budget(512, n, 3, 1'000'000);
  };
  spec.notes = "Protocol 10; running time open (conjectured faster than O(n^3)).";
  return spec;
}

}  // namespace netcons::protocols
