// The fundamental probabilistic processes of Section 3.3 (Table 1), each
// expressed as a NET plus an O(1) completion condition and the closed-form
// expectation established by Propositions 1-7. These are both the reference
// workloads of bench_table1_processes and the building blocks the paper's
// running-time proofs reduce to.
#pragma once

#include "core/simulator.hpp"
#include "core/world.hpp"

#include <functional>
#include <string>
#include <vector>

namespace netcons {

struct ProcessSpec {
  Protocol protocol;
  /// Optional non-uniform initial configuration (e.g. the single infected
  /// node of the epidemic).
  std::function<void(World&)> initialize;
  /// O(1) completion condition (census / edge-count based).
  std::function<bool(const World&)> done;
  /// Closed-form expected steps where the proposition pins it down exactly;
  /// otherwise a leading-order reference shape.
  std::function<double(std::uint64_t)> expected_steps;
  /// True when `expected_steps` is exact rather than a Theta-shape.
  bool expectation_exact = false;
  std::string name;
  std::string theta;  ///< Table 1 entry, e.g. "Theta(n log n)".
};

/// (a, b) -> (a, a); one initial a. Proposition 1: Theta(n log n), exactly
/// (n-1) H_{n-1}.
[[nodiscard]] ProcessSpec one_way_epidemic();

/// (a, a) -> (a, b); all nodes initially a; completes at a single a.
/// Proposition 2: Theta(n^2).
[[nodiscard]] ProcessSpec one_to_one_elimination();

/// (a, a, 0) -> (b, b, 1); completes at <=1 a. Proposition 3: Theta(n^2).
[[nodiscard]] ProcessSpec maximum_matching();

/// (a, a) -> (b, a), (a, b) -> (b, b); completes when no a remains.
/// Proposition 4: Theta(n log n).
[[nodiscard]] ProcessSpec one_to_all_elimination();

/// (a, b) -> (a, m); one a; completes when the a has met everyone.
/// Proposition 5: Theta(n^2 log n).
[[nodiscard]] ProcessSpec meet_everybody();

/// (a, a) -> (b, b), (a, b) -> (b, b); completes when all nodes are b.
/// Proposition 6: Theta(n log n).
[[nodiscard]] ProcessSpec node_cover();

/// (a, a, 0) -> (a, a, 1); completes when all edges are active.
/// Proposition 7: Theta(n^2 log n), exactly m H_m with m = n(n-1)/2.
[[nodiscard]] ProcessSpec edge_cover();

/// All seven, in Table 1 order.
[[nodiscard]] std::vector<ProcessSpec> all_processes();

/// Step budget for one trial of `spec` on n nodes: 64x the expected time
/// (or a generous cube fallback), so a timeout signals a real defect rather
/// than unlucky scheduling (campaign::run_process_trial's budget).
[[nodiscard]] std::uint64_t process_step_budget(const ProcessSpec& spec, int n);

}  // namespace netcons
