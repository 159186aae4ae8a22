// The pluggable execution-engine API.
//
// An Engine owns one simulation: a World evolving under a Protocol as
// scheduled encounters are applied. The interface is everything the
// surrounding layers (fault injection, campaign trials, analysis sweeps,
// CLI tools) need from an execution core: stepping, counters, world access,
// and sound stabilization detection. Faults are engine events, not
// per-step hooks: the fault driver (faults/fault_session.hpp) runs an
// engine to the step of the next event with run / run_until_stable and
// fires it through mutable_world(), so no engine observes every step.
//
// Two engines implement it today, sharing one set of run drivers (run,
// run_until, run_until_stable, defined once in Simulator) and differing
// only in how they reach the next effective step:
//  * NaiveEngine (= Simulator, core/simulator.hpp) executes every
//    scheduler-chosen encounter one virtual call at a time -- the paper's
//    model verbatim, and the reference semantics.
//  * CensusEngine (core/census_engine.hpp) samples only *effective*
//    encounters directly from a census of state-pair multiplicities and
//    advances the step counter by the geometrically-distributed count of
//    skipped ineffective steps -- distributionally faithful convergence
//    samples at O(1) expected cost per effective interaction. It needs
//    the scheduler's weight model and refuses a scheduler without one.
//
// The step counters are the paper's running-time clock: `steps()` counts
// every scheduled interaction (including ineffective ones an engine may
// have skipped over without executing), and `last_output_change()` is the
// last step at which the output graph G(C) changed -- the reported
// convergence step.
#pragma once

#include "core/protocol.hpp"
#include "core/world.hpp"
#include "util/rng.hpp"
#include "util/saturating.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>

namespace netcons::telemetry {
class Registry;
}  // namespace netcons::telemetry

namespace netcons {

/// Sound recognizer of output-stable configurations (beyond quiescence).
using StabilityCertificate = std::function<bool(const Protocol&, const World&)>;

/// Vestigial: declared only so engine wrappers that still override
/// Engine::set_interceptor (perfbench's TimedEngine) keep compiling. The
/// type is never defined, so nothing can install one; delete it and
/// set_interceptor once no wrapper overrides the method.
class StepInterceptor;

struct ConvergenceReport {
  bool stabilized = false;       ///< A sound stability condition was reached.
  bool quiescent = false;        ///< Stability was full quiescence.
  bool certified = false;        ///< Stability came from the certificate.
  std::uint64_t steps_executed = 0;   ///< Total steps run in this call.
  std::uint64_t convergence_step = 0; ///< Last step the output graph changed.

  // --- fault/recovery extension -------------------------------------------
  // Populated by faults::run_until_stable_with_faults; all zero on fault-free
  // runs. Edge accounting is exact when faults fire at stabilization (the
  // default) and approximate when they interleave with initial construction.
  std::uint64_t faults_injected = 0;  ///< Fault events applied during the run.
  std::uint64_t last_fault_step = 0;  ///< Step at which the last fault fired.
  /// Re-stabilization time: convergence_step - last_fault_step.
  std::uint64_t recovery_steps = 0;
  std::uint64_t output_edges_deleted = 0;   ///< G(C) edges destroyed by faults.
  std::uint64_t output_edges_repaired = 0;  ///< Of those, rebuilt (by count) at the end.
  std::uint64_t output_edges_residual = 0;  ///< Damage still missing at the end.
};

class Engine {
 public:
  virtual ~Engine() = default;

  /// Stable identifier of the execution strategy ("naive", "census"); what
  /// campaign grid points and trial-record fingerprints carry.
  [[nodiscard]] virtual const char* engine_name() const noexcept = 0;

  [[nodiscard]] virtual const Protocol& protocol() const noexcept = 0;
  [[nodiscard]] virtual const World& world() const noexcept = 0;
  /// Mutable access for custom initial configurations (e.g. Replication's
  /// input graph) and fault events. An engine that caches derived state
  /// (CensusEngine's multiplicity tables) must treat mutations through it
  /// as an invalidation signal (CensusEngine follows World::version()).
  [[nodiscard]] virtual World& mutable_world() noexcept = 0;
  [[nodiscard]] virtual Rng& rng() noexcept = 0;

  [[nodiscard]] virtual std::uint64_t steps() const noexcept = 0;
  [[nodiscard]] virtual std::uint64_t effective_steps() const noexcept = 0;
  [[nodiscard]] virtual std::uint64_t last_output_change() const noexcept = 0;

  /// Vestigial no-op kept only for wrappers that override it (see
  /// StepInterceptor above).
  virtual void set_interceptor(StepInterceptor* /*unused*/) noexcept {}

  /// Record that the output graph was changed externally (a fault deleted an
  /// output edge or removed an output node), so convergence_step accounting
  /// stays sound under injection.
  virtual void note_output_change() noexcept = 0;

  /// Execute one interaction. Returns true if it was effective. Engines
  /// that skip ineffective interactions may advance `steps()` by more than
  /// one per call.
  virtual bool step() = 0;

  /// Execute exactly `count` (further) steps of the paper's clock.
  virtual void run(std::uint64_t count) = 0;

  /// Run until `pred(world)` holds (the world only changes on effective
  /// steps, so engines may check on those; keep it O(1), e.g. census-based)
  /// or until `max_steps`. Returns the step count at which the predicate
  /// first held, or nullopt on timeout.
  [[nodiscard]] virtual std::optional<std::uint64_t> run_until(
      const std::function<bool(const World&)>& pred, std::uint64_t max_steps) = 0;

  struct StabilityOptions {
    std::uint64_t max_steps = 0;        ///< 0: derive a generous default.
    std::uint64_t check_interval = 0;   ///< 0: derive ~n^2 amortized default.
    StabilityCertificate certificate;   ///< Optional protocol-specific proof.
  };

  /// The derived defaults every run_until_stable implementation (and the
  /// fault recovery driver) shares, so the amortization grid and the step
  /// budget cannot drift between engines: check every ~n^2 steps, and cap
  /// at a budget generous enough for the paper's slowest protocols
  /// (callers measuring the O(n^5) regime pass an explicit budget).
  struct StabilityBudget {
    std::uint64_t check_interval = 0;
    std::uint64_t max_steps = 0;
  };
  [[nodiscard]] static StabilityBudget resolve_stability_budget(
      int n, const StabilityOptions& options) noexcept {
    const auto nn = static_cast<std::uint64_t>(n);
    StabilityBudget budget;
    budget.check_interval = options.check_interval ? options.check_interval
                                                   : std::max<std::uint64_t>(512, nn * nn);
    budget.max_steps = options.max_steps
                           ? options.max_steps
                           : std::max<std::uint64_t>(1'000'000, step_budget(64, n, 3, 0));
    return budget;
  }

  /// Run until stabilization is certified (quiescence or certificate).
  [[nodiscard]] virtual ConvergenceReport run_until_stable(const StabilityOptions& options) = 0;
  [[nodiscard]] ConvergenceReport run_until_stable() { return run_until_stable({}); }

  /// No encounter is effective in the current configuration (O(n^2) scan
  /// in the naive engine; O(1) in the census engine while its tables are
  /// fresh).
  [[nodiscard]] virtual bool is_quiescent() const = 0;

  /// No encounter can modify an edge in the current configuration (useful
  /// inside certificates; NOT sufficient for stability on its own since
  /// node dynamics may re-enable edge rules).
  [[nodiscard]] virtual bool is_edge_quiescent() const = 0;

  /// Publish this engine's internal counters into a telemetry registry
  /// (engine.* / census.* metric names; see README "Observability"). Called
  /// by trial drivers after a run completes, never on the hot path. The
  /// default publishes nothing, so Engine implementations outside this repo
  /// stay source-compatible.
  virtual void publish_metrics(telemetry::Registry& /*registry*/) {}
};

}  // namespace netcons
