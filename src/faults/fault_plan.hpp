// Declarative fault plans for adversarial perturbation of a running
// simulation (the fault axis of the campaign engine; cf. Fault Tolerant
// Network Constructors, Michail-Spirakis-Theofilatos 2019).
//
// A plan is a list of fault events parsed from a compact spec string:
//
//   none                           no faults (the implicit default)
//   crash:k=2                      crash 2 random nodes at first stabilization
//   crash:k=1:at=5000              crash 1 node at step 5000
//   edge-burst:f=0.1               delete 10% of active edges at stabilization
//   edge-burst:f=0.05:at=100:every=1000:times=5   periodic bursts
//   edge-rate:p=1e-4               delete one active edge after each gap
//                                  drawn Geometric(p), same law as a
//                                  per-step coin, for a 16*n^2-step window
//                                  (override: for=W)
//   reset:k=3                      reset 3 random nodes to q0 at stabilization
//   crash:k=1:target=max-degree    crash the highest-degree node (adversarial)
//   crash:k=1:target=leader        crash a leader/walker node (adversarial)
//   crash:k=1+edge-burst:f=0.2     '+' composes events into one plan
//
// Victim selection (crash and reset): `target=random` (the default) picks
// uniformly among alive nodes; `target=max-degree` picks the k alive nodes
// of highest active degree (ties by lowest id -- the adversary always hits
// the hubs); `target=leader` picks among alive nodes whose state name
// follows the library's leader convention (first letter 'l' or 'w'),
// padding with random victims when fewer than k leaders exist.
//
// Trigger semantics: burst kinds (crash, edge-burst, reset) with neither
// `at` nor `every` fire once at the first certified stabilization -- the
// regime the recovery metrics are defined for. With `at`/`every` they are
// step-scheduled (first firing at `at`, or at `every` when only `every` is
// given, then every `every` steps, `times` firings total). `edge-rate` is
// always step-driven, active in [at, at + window). An event at step s fires
// before the s-th interaction (see faults/fault_session.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace netcons::faults {

enum class FaultKind { Crash, EdgeBurst, EdgeRate, Reset };

[[nodiscard]] const char* to_string(FaultKind kind) noexcept;

/// How crash/reset victims are chosen (target=).
enum class VictimTarget { Random, MaxDegree, Leader };

[[nodiscard]] const char* to_string(VictimTarget target) noexcept;

struct FaultEvent {
  FaultKind kind = FaultKind::Crash;
  VictimTarget target = VictimTarget::Random;  ///< Crash/reset victim selector.
  int count = 1;          ///< Crash/reset victims per firing (k=).
  double fraction = 0.1;  ///< Edge-burst: fraction of active edges (f=).
  double rate = 1e-4;     ///< Edge-rate: deletion probability per step (p=);
                          ///< gaps are drawn Geometric(p).
  std::uint64_t at = 0;     ///< First firing step; 0 = at stabilization (burst
                            ///< kinds) / from the first step (edge-rate).
  std::uint64_t every = 0;  ///< Repeat period in steps (burst kinds).
  int times = 1;            ///< Total firings (burst kinds).
  std::uint64_t window = 0; ///< Edge-rate active window in steps (for=);
                            ///< 0 derives 16*n^2 at arm time.

  bool operator==(const FaultEvent&) const = default;

  /// Burst event that fires at certified stabilization (no step schedule).
  [[nodiscard]] bool stabilization_triggered() const noexcept {
    return kind != FaultKind::EdgeRate && at == 0 && every == 0;
  }
};

struct FaultPlan {
  std::string name = "none";  ///< The spec string the plan was parsed from.
  std::vector<FaultEvent> events;

  [[nodiscard]] bool empty() const noexcept { return events.empty(); }
};

/// Parse a plan spec ("none", "crash:k=2", "crash:k=1+edge-burst:f=0.2", ...).
/// Throws std::invalid_argument with a message quoting the grammar on any
/// unknown kind, unknown parameter, or out-of-range value.
[[nodiscard]] FaultPlan parse_fault_plan(const std::string& spec);

/// One-line-per-form grammar summary for CLI help and error messages.
[[nodiscard]] const std::string& fault_plan_grammar();

}  // namespace netcons::faults
