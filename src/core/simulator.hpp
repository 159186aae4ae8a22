// The naive execution engine: applies scheduler-chosen encounters to a
// World under a Protocol one virtual-scheduler-call at a time, tracks
// output-graph changes, and detects stabilization. This is the paper's
// model executed verbatim, and the reference semantics every other Engine
// implementation is measured against (core/engine.hpp).
//
// The run drivers (run, run_until, run_until_stable) live here once, for
// every engine layered on this core: they are written on one protected
// primitive, advance(), that reaches the next effective step and executes
// it. This engine's advance() executes scheduled steps one at a time;
// CensusEngine's samples the next effective step directly. Besides
// advance(), engines differ only in how run_until_stable checks quiescence.
//
// Stabilization detection is sound:
//  * Full quiescence -- no encounter is effective in the current
//    configuration -- always certifies stability (checked by an O(n^2) scan
//    amortized over long step intervals here; O(1) in CensusEngine).
//  * Protocols whose stable configurations are not quiescent (e.g. 2RC/kRC
//    leader swapping, Graph-Replication's eternal leader walk) supply a
//    *certificate* predicate, proven sound in the paper, that recognizes
//    output-stable configurations.
//
// The reported convergence step is the paper's running time: the last step
// at which the output graph G(C) changed (tracked in O(1) per step).
#pragma once

#include "core/engine.hpp"
#include "core/protocol.hpp"
#include "core/scheduler.hpp"
#include "core/world.hpp"

#include <cstdint>
#include <functional>
#include <memory>

namespace netcons {

class Simulator : public Engine {
 public:
  /// Uses the uniform random scheduler unless another is supplied.
  Simulator(Protocol protocol, int n, std::uint64_t seed,
            std::unique_ptr<Scheduler> scheduler = nullptr);

  [[nodiscard]] const char* engine_name() const noexcept override { return "naive"; }

  [[nodiscard]] const Protocol& protocol() const noexcept override { return protocol_; }
  [[nodiscard]] const World& world() const noexcept override { return world_; }
  /// Mutable access for custom initial configurations (e.g. Replication's
  /// input graph) and for fault events fired between steps.
  [[nodiscard]] World& mutable_world() noexcept override { return world_; }
  [[nodiscard]] Rng& rng() noexcept override { return rng_; }

  [[nodiscard]] std::uint64_t steps() const noexcept override { return steps_; }
  [[nodiscard]] std::uint64_t effective_steps() const noexcept override {
    return effective_steps_;
  }
  [[nodiscard]] std::uint64_t last_output_change() const noexcept override {
    return last_output_change_;
  }

  void note_output_change() noexcept override { last_output_change_ = steps_; }

  /// Execute one interaction. Returns true if it was effective.
  bool step() override;

  /// Execute exactly `count` steps (the target saturates at 2^64 - 1).
  void run(std::uint64_t count) final;

  /// Run until `pred(world)` holds or until `max_steps`. The world only
  /// changes on effective steps, so the predicate is checked after those
  /// (keep it O(1), e.g. census-based). Returns the step count at which
  /// the predicate first held, or nullopt on timeout.
  [[nodiscard]] std::optional<std::uint64_t> run_until(
      const std::function<bool(const World&)>& pred, std::uint64_t max_steps) final;

  /// Run until stabilization is certified (quiescence or certificate).
  [[nodiscard]] ConvergenceReport run_until_stable(const StabilityOptions& options) final;
  using Engine::run_until_stable;

  /// O(n^2) scan: no encounter is effective in the current configuration.
  [[nodiscard]] bool is_quiescent() const override;

  /// O(n^2) scan: no encounter can modify an edge in the current
  /// configuration.
  [[nodiscard]] bool is_edge_quiescent() const override;

  /// Publishes engine.steps / engine.effective_steps /
  /// engine.ineffective_steps into the registry.
  void publish_metrics(telemetry::Registry& registry) override;

 protected:
  /// What one advance() call did.
  enum class StepOutcome : std::uint8_t {
    kExecuted,         ///< One effective encounter executed.
    kBudgetExhausted,  ///< The clock reached the budget first.
    kQuiescent         ///< No encounter is effective; the clock did not move.
  };

  /// The stepping primitive the run drivers share: advance the clock to
  /// the next effective step and execute it, never moving the clock past
  /// `budget`. Here: scheduled steps one at a time, which cannot see
  /// quiescence, so this never returns kQuiescent.
  virtual StepOutcome advance(std::uint64_t budget);

  /// Whether advance() reports kQuiescent. Such an engine runs a
  /// certificate-less run_until_stable straight to its budget; this one
  /// pauses every check_interval steps to scan for quiescence.
  [[nodiscard]] virtual bool reports_quiescence() const noexcept { return false; }

  /// Quiescence as run_until_stable checks it; non-const so an engine can
  /// bring derived tables up to date first instead of scanning all pairs.
  [[nodiscard]] virtual bool quiescent_now() { return is_quiescent(); }

  // Hooks for engines layered on the naive core (CensusEngine): execute a
  // chosen encounter exactly as a scheduled step would, and advance the
  // paper's step clock over interactions proven ineffective.

  /// Resolve and apply the encounter (u, v) with the caller-known current
  /// edge state `c` of {u, v}. Returns true if it was effective. Does NOT
  /// touch the step counter; callers account for the step themselves.
  bool execute_encounter(int u, int v, bool c);

  /// Advance the step clock by `count` interactions without executing them.
  void skip_steps(std::uint64_t count) noexcept { steps_ += count; }

  /// The installed scheduler (never null; the default is the uniform
  /// random scheduler). Lets CensusEngine recognize the uniform scheduler,
  /// whose weight model it owns.
  [[nodiscard]] const Scheduler* scheduler() const noexcept { return scheduler_.get(); }

  /// Mutable scheduler access for engines that query the weight-model seam
  /// (building a model may lazily embed the nodes, which mutates the
  /// scheduler and consumes engine RNG).
  [[nodiscard]] Scheduler* mutable_scheduler() noexcept { return scheduler_.get(); }

 private:
  /// One scheduled step: draw an encounter and execute it.
  bool naive_step();
  /// Apply `rule` to the pair, whose current edge state is `c`.
  void apply(const RuleEntry& rule, int initiator, int responder, bool c);

  Protocol protocol_;
  World world_;
  Rng rng_;
  std::unique_ptr<Scheduler> scheduler_;
  std::uint64_t steps_ = 0;
  std::uint64_t effective_steps_ = 0;
  std::uint64_t last_output_change_ = 0;
};

/// The reference engine under its registry name (see campaign/registry.cpp
/// and core/census_engine.hpp for the alternative).
using NaiveEngine = Simulator;

}  // namespace netcons
