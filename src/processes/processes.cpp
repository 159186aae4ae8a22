#include "processes/processes.hpp"

#include "util/stats.hpp"

namespace netcons {
namespace {

/// Adds the same node-state rule for both edge states (these processes
/// ignore edge states; Section 3.3 writes them as delta: Q x Q -> Q x Q).
void add_edge_oblivious_rule(ProtocolBuilder& b, StateId a, StateId x, StateId a2, StateId x2) {
  b.add_rule(a, x, false, a2, x2, false);
  b.add_rule(a, x, true, a2, x2, true);
}

double maximum_matching_expectation(std::uint64_t n) {
  // With R remaining a's, success probability R(R-1)/(n(n-1)) and each
  // success removes two a's: E[X] = n(n-1) * sum over R = n, n-2, ... of
  // 1/(R(R-1)) down to R >= 2.
  if (n < 2) return 0.0;
  double sum = 0.0;
  for (std::uint64_t r = n; r >= 2; r -= 2) {
    sum += 1.0 / (static_cast<double>(r) * static_cast<double>(r - 1));
    if (r == 2 || r == 3) break;
  }
  return static_cast<double>(n) * static_cast<double>(n - 1) * sum;
}

double node_cover_shape(std::uint64_t n) { return theory::n_log_n(n); }

}  // namespace

ProcessSpec one_way_epidemic() {
  ProtocolBuilder b("One-way-epidemic");
  const StateId sb = b.add_state("b");
  const StateId sa = b.add_state("a");
  b.set_initial(sb);
  add_edge_oblivious_rule(b, sa, sb, sa, sa);
  ProcessSpec spec;
  spec.protocol = b.build();
  spec.initialize = [sa](World& w) { w.set_state(0, sa); };
  spec.done = [sa](const World& w) { return w.census(sa) == w.alive_count(); };
  spec.expected_steps = [](std::uint64_t n) { return theory::one_way_epidemic(n); };
  spec.expectation_exact = true;
  spec.name = "One-way epidemic";
  spec.theta = "Theta(n log n)";
  return spec;
}

ProcessSpec one_to_one_elimination() {
  ProtocolBuilder b("One-to-one-elimination");
  const StateId sa = b.add_state("a");
  const StateId sb = b.add_state("b");
  b.set_initial(sa);
  add_edge_oblivious_rule(b, sa, sa, sa, sb);
  ProcessSpec spec;
  spec.protocol = b.build();
  spec.done = [sa](const World& w) { return w.census(sa) == 1; };
  spec.expected_steps = [](std::uint64_t n) { return theory::one_to_one_elimination(n); };
  spec.expectation_exact = true;
  spec.name = "One-to-one elimination";
  spec.theta = "Theta(n^2)";
  return spec;
}

ProcessSpec maximum_matching() {
  ProtocolBuilder b("Maximum-matching");
  const StateId sa = b.add_state("a");
  const StateId sb = b.add_state("b");
  b.set_initial(sa);
  b.add_rule(sa, sa, false, sb, sb, true);
  ProcessSpec spec;
  spec.protocol = b.build();
  spec.done = [sa](const World& w) { return w.census(sa) <= 1; };
  spec.expected_steps = maximum_matching_expectation;
  spec.expectation_exact = true;
  spec.name = "Maximum matching";
  spec.theta = "Theta(n^2)";
  return spec;
}

ProcessSpec one_to_all_elimination() {
  ProtocolBuilder b("One-to-all-elimination");
  const StateId sa = b.add_state("a");
  const StateId sb = b.add_state("b");
  b.set_initial(sa);
  add_edge_oblivious_rule(b, sa, sa, sb, sa);
  add_edge_oblivious_rule(b, sa, sb, sb, sb);
  ProcessSpec spec;
  spec.protocol = b.build();
  spec.done = [sa](const World& w) { return w.census(sa) == 0; };
  spec.expected_steps = [](std::uint64_t n) { return theory::one_to_all_elimination(n); };
  spec.expectation_exact = true;
  spec.name = "One-to-all elimination";
  spec.theta = "Theta(n log n)";
  return spec;
}

ProcessSpec meet_everybody() {
  ProtocolBuilder b("Meet-everybody");
  const StateId sb = b.add_state("b");
  const StateId sa = b.add_state("a");
  const StateId sm = b.add_state("m");
  b.set_initial(sb);
  add_edge_oblivious_rule(b, sa, sb, sa, sm);
  ProcessSpec spec;
  spec.protocol = b.build();
  spec.initialize = [sa](World& w) { w.set_state(0, sa); };
  spec.done = [sm](const World& w) { return w.census(sm) == w.alive_count() - 1; };
  spec.expected_steps = [](std::uint64_t n) { return theory::meet_everybody(n); };
  spec.expectation_exact = true;
  spec.name = "Meet everybody";
  spec.theta = "Theta(n^2 log n)";
  return spec;
}

ProcessSpec node_cover() {
  ProtocolBuilder b("Node-cover");
  const StateId sa = b.add_state("a");
  const StateId sb = b.add_state("b");
  b.set_initial(sa);
  add_edge_oblivious_rule(b, sa, sa, sb, sb);
  add_edge_oblivious_rule(b, sa, sb, sb, sb);
  ProcessSpec spec;
  spec.protocol = b.build();
  spec.done = [sb](const World& w) { return w.census(sb) == w.alive_count(); };
  spec.expected_steps = node_cover_shape;
  spec.expectation_exact = false;
  spec.name = "Node cover";
  spec.theta = "Theta(n log n)";
  return spec;
}

ProcessSpec edge_cover() {
  ProtocolBuilder b("Edge-cover");
  const StateId sa = b.add_state("a");
  b.set_initial(sa);
  b.add_rule(sa, sa, false, sa, sa, true);
  ProcessSpec spec;
  spec.protocol = b.build();
  spec.done = [](const World& w) {
    // Over the alive population, so the process stays completable under
    // crash faults (dead nodes cannot carry edges).
    const auto n = static_cast<std::int64_t>(w.alive_count());
    return w.active_edge_count() == n * (n - 1) / 2;
  };
  spec.expected_steps = [](std::uint64_t n) { return theory::edge_cover(n); };
  spec.expectation_exact = true;
  spec.name = "Edge cover";
  spec.theta = "Theta(n^2 log n)";
  return spec;
}

std::vector<ProcessSpec> all_processes() {
  std::vector<ProcessSpec> out;
  out.push_back(one_way_epidemic());
  out.push_back(one_to_one_elimination());
  out.push_back(maximum_matching());
  out.push_back(one_to_all_elimination());
  out.push_back(meet_everybody());
  out.push_back(node_cover());
  out.push_back(edge_cover());
  return out;
}

std::uint64_t process_step_budget(const ProcessSpec& spec, int n) {
  const double expected = spec.expected_steps ? spec.expected_steps(static_cast<std::uint64_t>(n))
                                              : static_cast<double>(n) * n * n;
  return static_cast<std::uint64_t>(64.0 * expected) + 100'000;
}

}  // namespace netcons
