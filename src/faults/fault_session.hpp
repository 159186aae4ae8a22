// Runtime execution of a FaultPlan against one Engine: a StepInterceptor
// that fires step-scheduled events (periodic bursts, rate-based deletions)
// from inside the step loop, plus an explicit entry point for
// stabilization-triggered events, driven by the recovery loop below.
//
// Determinism: every random choice (victims, deleted edges, rate coin)
// draws from the session's own generator, seeded independently of the
// simulator via a dedicated SplitMix64 stream element. A (plan, seed) pair
// therefore reproduces the exact fault trajectory on any thread of a
// campaign, which is what keeps fault campaigns bit-identical across
// thread counts.
#pragma once

#include "core/engine.hpp"
#include "faults/fault_plan.hpp"

#include <cstdint>
#include <optional>

namespace netcons::faults {

/// Number of G(C) edges (active edges whose endpoints are both alive output
/// nodes). O(n^2 / 64 + m) through World::for_each_active_edge; called only
/// around fault firings, never per step.
[[nodiscard]] std::uint64_t output_edge_count(const Protocol& protocol, const World& world);

/// Stream tag separating the fault generator's seed from the simulator's
/// (the simulator consumes the trial seed itself, exactly as fault-free
/// trials always have).
inline constexpr std::uint64_t kFaultSeedStream = 0xfa17;

class FaultSession final : public StepInterceptor {
 public:
  FaultSession(FaultPlan plan, std::uint64_t seed);

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// Fires any step-scheduled event whose trigger has been reached, and
  /// rate-based deletions, before the simulator executes the next encounter.
  void before_step(Engine& sim) override;

  /// Fire every pending stabilization-triggered event now. Returns true if
  /// at least one event fired.
  bool fire_on_stabilization(Engine& sim);

  [[nodiscard]] bool stabilization_pending() const noexcept;

  /// Earliest future step at which a scheduled event can still fire (the
  /// upper end of the window, for rate events); nullopt when every
  /// step-scheduled event is exhausted. Used by the recovery loop to run a
  /// quiescent simulator forward to its next perturbation. Non-const: arms
  /// the plan (resolving n-dependent defaults) on first use.
  [[nodiscard]] std::optional<std::uint64_t> next_scheduled(const Engine& sim);

  /// True once no event -- stabilization- or step-triggered -- can fire again.
  [[nodiscard]] bool exhausted(const Engine& sim);

  /// Upper bound on the number of distinct firing episodes (used to scale
  /// the recovery loop's total step budget).
  [[nodiscard]] std::uint64_t episode_bound() const noexcept;

  // --- accounting -----------------------------------------------------------
  [[nodiscard]] std::uint64_t faults_injected() const noexcept { return faults_injected_; }
  [[nodiscard]] std::uint64_t last_fault_step() const noexcept { return last_fault_step_; }
  [[nodiscard]] std::uint64_t output_edges_deleted() const noexcept {
    return output_edges_deleted_;
  }
  /// |G(C)| measured immediately after the most recent firing.
  [[nodiscard]] std::uint64_t output_edges_after_damage() const noexcept {
    return output_edges_after_damage_;
  }

 private:
  struct Armed {
    FaultEvent event;
    int fired = 0;                 ///< Firings so far (burst kinds).
    std::uint64_t next_at = 0;     ///< Next trigger step (step-scheduled).
    std::uint64_t window_end = 0;  ///< Edge-rate: last active step.
  };

  void ensure_armed(const Engine& sim);
  [[nodiscard]] bool armed_exhausted(const Armed& armed) const noexcept;
  void fire_burst(Engine& sim, Armed& armed);
  void delete_one_random_edge(Engine& sim);
  void record_firing(Engine& sim, std::uint64_t deleted_output, bool membership_changed);

  FaultPlan plan_;
  Rng rng_;
  bool armed_ = false;
  std::vector<Armed> armed_events_;
  std::uint64_t faults_injected_ = 0;
  std::uint64_t last_fault_step_ = 0;
  std::uint64_t output_edges_deleted_ = 0;
  std::uint64_t output_edges_after_damage_ = 0;
};

/// Run `sim` to certified stability under fault injection: stabilize, fire
/// pending stabilization-triggered events, re-stabilize, and run forward
/// through any step-scheduled events, until the plan is exhausted and the
/// simulator is stable again (or the budget runs out, reported as
/// stabilized = false). Each phase gets a fresh copy of the per-phase step
/// budget (options.max_steps, or the run_until_stable default), so recovery
/// is afforded the same time as initial construction.
///
/// The returned report carries the recovery extension: faults_injected,
/// last_fault_step, recovery_steps = convergence_step - last_fault_step,
/// and the damage ledger (output edges deleted by faults vs. rebuilt --
/// by count -- vs. residual). An empty plan is exactly run_until_stable.
[[nodiscard]] ConvergenceReport run_until_stable_with_faults(
    Engine& sim, FaultSession& session, const Engine::StabilityOptions& options = {});

}  // namespace netcons::faults
