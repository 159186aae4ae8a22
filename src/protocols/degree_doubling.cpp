// Section 7 discussion: the maximum degree of the target network is NOT a
// lower bound on protocol size -- Theta(d) states suffice for a
// distinguished node to acquire exactly 2^d neighbors, by repeated doubling:
//
//   (q0,  a0,  0) -> (q0', a1, 1)
//   (q0', a0,  0) -> (q,   a1, 1)
//   (q,   a_i, 1) -> (q_{i+1}, a_{i+1}, 1)   for 1 <= i <= d-1
//   (q_j, a0,  0) -> (q,   a_j, 1)           for 2 <= j <= d
//
// Every level-i neighbor is eventually upgraded to level i+1, and each
// upgrade debt (q_j) attaches one fresh level-j neighbor; independently of
// interleavings the node ends with exactly 2^d level-d neighbors.
#include "protocols/protocols.hpp"

#include "util/saturating.hpp"

#include <stdexcept>
#include <vector>

namespace netcons::protocols {

ProtocolSpec degree_doubling(int d) {
  if (d < 1 || d > 20) throw std::invalid_argument("degree_doubling: need 1 <= d <= 20");
  ProtocolBuilder b("Degree-Doubling(d=" + std::to_string(d) + ")");

  const StateId a0 = b.add_state("a0");
  std::vector<StateId> a(static_cast<std::size_t>(d) + 1);
  a[0] = a0;
  for (int i = 1; i <= d; ++i)
    a[static_cast<std::size_t>(i)] = b.add_state("a" + std::to_string(i));
  const StateId q0 = b.add_state("q0");
  const StateId q0p = b.add_state("q0'");
  const StateId q = b.add_state("q");
  std::vector<StateId> qj(static_cast<std::size_t>(d) + 1);  // q_2..q_d used
  for (int j = 2; j <= d; ++j)
    qj[static_cast<std::size_t>(j)] = b.add_state("q" + std::to_string(j));
  b.set_initial(a0);

  auto A = [&](int i) { return a[static_cast<std::size_t>(i)]; };

  b.add_rule(q0, a0, false, q0p, A(1), true);
  b.add_rule(q0p, a0, false, q, A(1), true);
  for (int i = 1; i <= d - 1; ++i) {
    b.add_rule(q, A(i), true, qj[static_cast<std::size_t>(i + 1)], A(i + 1), true);
  }
  for (int j = 2; j <= d; ++j) {
    b.add_rule(qj[static_cast<std::size_t>(j)], a0, false, q, A(j), true);
  }

  ProtocolSpec spec;
  spec.protocol = b.build();
  spec.initialize = [q0](World& w) { w.set_state(0, q0); };

  const std::int64_t want = std::int64_t{1} << d;
  spec.target = [want](const Graph& g) {
    if (g.edge_count() != want) return false;
    int hubs = 0;
    for (int u = 0; u < g.order(); ++u) {
      const int deg = g.degree(u);
      if (deg == want) {
        ++hubs;
      } else if (deg > 1) {
        return false;
      }
    }
    return hubs == 1;
  };
  spec.max_steps = [d](int n) {
    return step_budget(1024 * static_cast<std::uint64_t>(d + 1), n, 2, 1'000'000);
  };
  spec.notes = "Section 7: 2^d neighbors from Theta(d) states; needs n >= 2^d + 1.";
  return spec;
}

}  // namespace netcons::protocols
