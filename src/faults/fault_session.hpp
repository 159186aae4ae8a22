// Runtime execution of a FaultPlan against one Engine. Every fault fires
// at a step known in advance, so faults are engine events, not per-step
// hooks: a stabilization-triggered burst when stability is certified, an
// `at`/`every` burst at its step (an event at step s fires before the s-th
// interaction, at clock reading s - 1), and an `edge-rate` deletion after
// a Geometric(p) gap -- the same law as a per-step Bernoulli(p) coin. The
// driver runs the engine up to each event and fires it through
// Engine::mutable_world(); the census engine pays one table rebuild per
// firing (World::version()).
//
// Determinism: every random choice (victims, deleted edges, rate gaps)
// draws from the session's own generator, seeded independently of the
// simulator via a dedicated SplitMix64 stream element. A (plan, seed) pair
// therefore reproduces the exact fault trajectory on any thread of a
// campaign, which is what keeps fault campaigns bit-identical across
// thread counts.
#pragma once

#include "core/engine.hpp"
#include "faults/fault_plan.hpp"

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

namespace netcons::faults {

/// Number of G(C) edges (active edges whose endpoints are both alive output
/// nodes). O(n^2 / 64 + m) through World::for_each_active_edge; called only
/// around fault firings, never per step.
[[nodiscard]] std::uint64_t output_edge_count(const Protocol& protocol, const World& world);

/// Stream tag separating the fault generator's seed from the simulator's
/// (the simulator consumes the trial seed itself, exactly as fault-free
/// trials always have).
inline constexpr std::uint64_t kFaultSeedStream = 0xfa17;

class FaultSession final {
 public:
  FaultSession(FaultPlan plan, std::uint64_t seed);

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// Fire every pending stabilization-triggered event now. Returns true if
  /// at least one event fired.
  bool fire_on_stabilization(Engine& sim);

  /// The earliest clock reading >= sim.steps() at which a step-scheduled
  /// event fires (a burst, or the next edge-rate deletion); nullopt once
  /// none can. Non-const: arms the plan (resolving n-dependent defaults
  /// and drawing each rate window's first gap) on first use.
  [[nodiscard]] std::optional<std::uint64_t> next_event_step(const Engine& sim);

  /// Fire every step-scheduled event due at sim.steps(), drawing the next
  /// gap of each rate window that fired.
  void fire_due(Engine& sim);

  /// True while an edge-rate window is open with a deletion still to come:
  /// the driver runs such stretches without stability checks.
  [[nodiscard]] bool rate_window_open(const Engine& sim);

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
    int fired = 0;                   ///< Firings so far (burst kinds).
    std::uint64_t next_at = 0;       ///< Clock reading of the next firing.
    std::uint64_t window_first = 0;  ///< Edge-rate: first clock reading it can fire at.
    std::uint64_t window_last = 0;   ///< Edge-rate: last clock reading it can fire at.
  };

  void ensure_armed(const Engine& sim);
  /// Whether a step-scheduled event can still fire.
  [[nodiscard]] static bool scheduled_pending(const Armed& armed) noexcept;
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

/// The one fault driver. Runs `sim` to certified stability under fault
/// injection: stabilize, fire stabilization-triggered events, re-stabilize,
/// and run through step-scheduled events until the plan is exhausted and
/// the engine is stable again (or the budget runs out: stabilized = false).
/// Every firing renews the per-phase budget (options.max_steps, or the
/// run_until_stable default), so recovery gets the time construction got.
/// Stability is checked on run_until_stable's amortized grid only, never
/// inside an open edge-rate window or across a gap to the next event
/// shorter than check_interval; a stabilization-triggered event fires where
/// the naive engine's check sees stability, so both engines time faults by
/// one law. With `done` set (process trials) the goal is instead the first
/// step at which done(world) holds, within options.max_steps, and
/// stabilization-triggered events fire up front.
///
/// The report adds faults_injected, last_fault_step, recovery_steps =
/// convergence_step - last_fault_step, and the damage ledger (output edges
/// deleted by faults vs. rebuilt -- by count -- vs. residual). An empty plan
/// is exactly run_until_stable, or run_until(done, options.max_steps).
[[nodiscard]] ConvergenceReport run_until_stable_with_faults(
    Engine& sim, FaultSession& session, const Engine::StabilityOptions& options = {},
    const std::function<bool(const World&)>& done = {});

}  // namespace netcons::faults
