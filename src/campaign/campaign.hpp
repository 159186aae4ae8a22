// The Monte-Carlo campaign engine: executes an arbitrary grid of
// (protocol | process) x n x scheduler, `trials` independent trials per
// point, one trial per job on a thread pool, largest n first.
//
// Determinism contract: the seed of trial t of grid point p is a pure
// function of (spec.base_seed, p, t) — see seeds.hpp — and every trial
// writes its outcome into a pre-assigned slot, with aggregation performed
// sequentially in (point, trial) order after the pool drains. Aggregate
// statistics are therefore bit-identical regardless of thread count,
// dispatch order, or the order in which the OS schedules the workers.
//
// The grid is expanded unit-major, then scheduler, then fault plan, then
// execution engine, then n:
//   point_index = (((unit_index * |schedulers| + scheduler_index) * |faults|
//                   + fault_index) * |engines| + engine_index) * |ns| + n_index
// With no fault axis declared, |faults| == 1 (the implicit "none" plan);
// with no engine axis, |engines| == 1 (the implicit "naive" engine). Both
// defaults keep the indexing -- hence every per-trial seed -- identical to
// the pre-axis engine.
#pragma once

#include "core/spec.hpp"
#include "faults/fault_plan.hpp"
#include "processes/processes.hpp"
#include "util/stats.hpp"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace netcons::telemetry {
class CampaignMonitor;
}  // namespace netcons::telemetry

namespace netcons::campaign {

/// Creates a fresh scheduler per trial; a null factory means the
/// simulator's default (the uniform random scheduler of the paper's model).
using SchedulerFactory = std::function<std::unique_ptr<Scheduler>()>;

struct SchedulerOption {
  std::string name = "uniform";
  SchedulerFactory make;  ///< Null: uniform random.
};

/// Creates a fresh execution engine per trial (core/engine.hpp); a null
/// factory means the reference NaiveEngine. The scheduler argument may be
/// null (the uniform default) and is consumed by the engine.
using EngineFactory = std::function<std::unique_ptr<Engine>(
    const Protocol& protocol, int n, std::uint64_t seed, std::unique_ptr<Scheduler> scheduler)>;

struct EngineOption {
  std::string name = "naive";
  EngineFactory make;  ///< Null: NaiveEngine (the reference semantics).
};

/// Instantiate an engine under the null-factory convention (null
/// `make_engine`: the reference NaiveEngine; null `make_scheduler`: the
/// uniform default). The one definition of that policy — the campaign
/// trial runners and the CLI tools all construct through here.
[[nodiscard]] std::unique_ptr<Engine> instantiate_engine(const EngineFactory& make_engine,
                                                         const Protocol& protocol, int n,
                                                         std::uint64_t seed,
                                                         const SchedulerFactory& make_scheduler);

/// One row of the campaign grid: a named constructor protocol or a named
/// Section 3.3 process.
struct Unit {
  std::string name;
  std::variant<ProtocolSpec, ProcessSpec> spec;

  [[nodiscard]] static Unit protocol(std::string name, ProtocolSpec spec) {
    return Unit{std::move(name), std::move(spec)};
  }
  /// Grid-point name under the caller's control (e.g. the CLI passes the
  /// registry slug the user typed, so exports match the input).
  [[nodiscard]] static Unit process(std::string name, ProcessSpec spec) {
    return Unit{std::move(name), std::move(spec)};
  }
  [[nodiscard]] static Unit process(ProcessSpec spec) {
    std::string name = spec.name;
    return Unit{std::move(name), std::move(spec)};
  }
};

/// Build one with designated initializers; every axis has a `{}` default so
/// a caller may skip it, e.g. `{.units = {...}, .ns = {n}, .trials = 10}`.
struct CampaignSpec {
  std::vector<Unit> units;
  std::vector<int> ns;
  int trials = 1;
  /// Empty: one implicit {"uniform", null} option.
  std::vector<SchedulerOption> schedulers{};
  /// Fault-plan axis (see faults/fault_plan.hpp). Empty: one implicit
  /// "none" plan, i.e. the classic fault-free campaign.
  std::vector<faults::FaultPlan> faults{};
  /// Execution-engine axis (core/engine.hpp). Empty: one implicit
  /// {"naive", null} option -- the reference per-step engine.
  std::vector<EngineOption> engines{};
  std::uint64_t base_seed = 1;
};

/// Outcome of a single trial (slot written by exactly one worker).
struct TrialOutcome {
  bool success = false;
  /// Convergence step (protocols) or completion step (processes).
  std::uint64_t value = 0;
  std::uint64_t steps_executed = 0;
  /// what() of an exception thrown by this trial, if any (empty otherwise).
  std::string error;
  /// Protocols: the stabilized output graph matched the target. Under a
  /// fault plan, success means re-stabilization and target_ok is tracked
  /// separately (a re-stabilized but damaged topology is the interesting
  /// residual-fault outcome, not a trial failure).
  bool target_ok = false;
  // Recovery metrics (zero for fault-free trials); see ConvergenceReport.
  std::uint64_t faults_injected = 0;
  std::uint64_t recovery_steps = 0;
  std::uint64_t edges_deleted = 0;
  std::uint64_t edges_repaired = 0;
  std::uint64_t edges_residual = 0;
};

/// Identity of one expanded grid point: everything the summary sinks and
/// the trial-record header need to name the point, without the live spec
/// objects behind it. This is the unit of the spec fingerprint that
/// sharded/resumed record files are validated against.
struct GridPoint {
  std::string unit;
  std::string scheduler;
  std::string faults = "none";
  std::string engine = "naive";  ///< Execution-engine name of this point.
  /// Non-empty fault plan (drives the reduction's recovery aggregation).
  bool faulted = false;
  int n = 0;
  std::uint64_t seed = 0;  ///< Base of this point's per-trial seed stream.

  [[nodiscard]] bool operator==(const GridPoint&) const = default;
};

/// The campaign's expanded grid, in the canonical point order (unit-major,
/// then scheduler, then fault plan, then engine, then n) with
/// position-derived seeds.
[[nodiscard]] std::vector<GridPoint> expand_grid(const CampaignSpec& spec);

struct PointResult {
  std::string unit;
  std::string scheduler;
  std::string faults = "none";  ///< Fault-plan name of this grid point.
  std::string engine = "naive"; ///< Execution-engine name of this grid point.
  int n = 0;
  int trials = 0;
  int failures = 0;  ///< Timeouts, target mismatches, or per-trial throws.
  /// Re-stabilized faulted trials whose final output graph missed the
  /// target: the damage the protocol could not repair.
  int damaged = 0;
  std::uint64_t seed = 0;           ///< The point's seed-stream base.
  RunningStats convergence_steps;   ///< Over successful trials only.
  RunningStats steps_executed;      ///< Over all trials (certification cost).
  RunningStats recovery_steps;      ///< Re-stabilization time after the last
                                    ///< fault, over successful faulted trials.
  RunningStats faults_injected;     ///< Fault events per trial (all trials).
  RunningStats edges_deleted;       ///< Output edges destroyed by faults.
  RunningStats edges_repaired;      ///< Of those, rebuilt by count.
  RunningStats edges_residual;      ///< Damage never repaired.
  /// First exception message among this point's failed trials (empty when
  /// failures are plain timeouts/target mismatches) — the diagnostic handle
  /// for "why did this point fail".
  std::string first_error;
};

/// Preloaded trial outcomes keyed by (point index, trial index) — what a
/// resume scan of existing trial-record files produces.
using OutcomeMap = std::map<std::pair<std::size_t, int>, TrialOutcome>;

/// Shard membership of trial `trial` of point `point`: the grid is striped
/// at trial granularity (global trial id modulo shard count), so k shards
/// partition any grid into disjoint, load-balanced, position-deterministic
/// slices regardless of how trials and points trade off. A shard run
/// passes it as RunOptions::select.
[[nodiscard]] constexpr bool in_shard(std::size_t point, int trial, int trials,
                                      int shard_index, int shard_count) noexcept {
  const std::uint64_t id = static_cast<std::uint64_t>(point) *
                               static_cast<std::uint64_t>(trials) +
                           static_cast<std::uint64_t>(trial);
  return id % static_cast<std::uint64_t>(shard_count) ==
         static_cast<std::uint64_t>(shard_index);
}

struct RunOptions {
  int threads = 0;  ///< 0: hardware concurrency (min 1).
  /// Execute at most this many trials this run (0: unlimited): the first
  /// `trial_cap` of the largest-n-first dispatch order, so the same trials
  /// for any thread count. The run then reports complete == false; used to
  /// test and exercise crash/resume paths deterministically.
  std::uint64_t trial_cap = 0;
  /// Outcomes already known from a previous run's trial records; those
  /// slots are filled without re-executing. Keys outside the grid are
  /// ignored. Not owned; must outlive run().
  const OutcomeMap* resume = nullptr;
  /// Optional slot filter: when set, only (point, trial) slots for which it
  /// returns true are scheduled this run (composes with resume skips — a
  /// filtered-out slot is simply not this run's work). This is how a shard
  /// run selects its slice (in_shard) and how a fabric worker executes a
  /// lease: one run() per leased trial range, selecting exactly those slots.
  std::function<bool(std::size_t point, int trial)> select;
  /// Optional per-trial observer, invoked from worker threads immediately
  /// after each *executed* trial (never for resumed slots) with the trial's
  /// grid position, derived seed, and outcome. Must be thread-safe; this is
  /// where a TrialRecordSink plugs in.
  std::function<void(std::size_t point, int trial, std::uint64_t seed,
                     const TrialOutcome& outcome)>
      on_trial;
  /// Optional progress/heartbeat monitor (telemetry/heartbeat.hpp): run()
  /// calls begin() with this invocation's scheduled trial count and worker
  /// count, record_job() after every executed trial, and end() when the
  /// pool drains.
  /// Not owned; must outlive run(). Purely observational -- attaching a
  /// monitor never changes outcomes or summary bytes.
  telemetry::CampaignMonitor* monitor = nullptr;
};

struct CampaignResult {
  /// Deterministic grid order. Populated only when `complete` — a sharded
  /// or capped run holds a partial outcome set that only the trial-record
  /// stream (and netcons_merge) can turn into a faithful summary.
  std::vector<PointResult> points;
  bool complete = true;  ///< Every (point, trial) slot executed or resumed.
  std::uint64_t total_trials = 0;     ///< Grid size: points x trials.
  std::uint64_t executed_trials = 0;  ///< Trials actually run this invocation.
  std::uint64_t resumed_trials = 0;   ///< Slots filled from RunOptions::resume.
  std::uint64_t total_failures = 0;   ///< Over all filled slots.
  int threads = 0;
  double wall_seconds = 0.0;  ///< Execution time (not part of determinism).
};

/// The engine's sequential reduction: fold fully-populated outcome slots
/// into PointResults in (point, trial) order. Exposed so netcons_merge can
/// rebuild the exact summary a single-process run would have produced from
/// a merged record stream — same code path, byte-identical JSON/CSV.
/// `outcomes` must hold one slot per grid point, `trials` slots each.
[[nodiscard]] CampaignResult reduce_outcomes(
    const std::vector<GridPoint>& grid, int trials,
    const std::vector<std::vector<TrialOutcome>>& outcomes);

/// Execute the campaign. Trial-level throws (timeouts, protocol predicates)
/// are counted as failures and their first message is recorded on the
/// point; std::bad_alloc propagates (an out-of-memory campaign must abort,
/// not masquerade as protocol non-convergence).
[[nodiscard]] CampaignResult run(const CampaignSpec& spec, const RunOptions& options = {});

/// Run one protocol trial: simulate to certified stability under the given
/// scheduler and fault plan (empty plan: fault-free), then validate the
/// output graph. This is THE canonical trial-driving sequence, for single
/// runs and campaigns alike; trial-level throws are captured in `error`
/// instead of raised. Fault-free: success = stabilized && target matched.
/// Under a fault plan: success = re-stabilized after the plan ran, with
/// target_ok recorded separately (see TrialOutcome).
[[nodiscard]] TrialOutcome run_protocol_trial(const ProtocolSpec& spec, int n,
                                              std::uint64_t seed,
                                              const SchedulerFactory& make_scheduler = {},
                                              const faults::FaultPlan& fault_plan = {},
                                              const EngineFactory& make_engine = {});

/// Run one process trial (completion of the census condition) with an
/// explicit scheduler factory. A timeout is reported as failure, not thrown.
/// Processes have no stabilization phase, so stabilization-triggered fault
/// events fire before the first step instead.
[[nodiscard]] TrialOutcome run_process_trial(const ProcessSpec& spec, int n,
                                             std::uint64_t seed,
                                             const SchedulerFactory& make_scheduler = {},
                                             const faults::FaultPlan& fault_plan = {},
                                             const EngineFactory& make_engine = {});

/// Effective thread count for `requested` (0 resolves to hardware).
[[nodiscard]] int resolve_threads(int requested) noexcept;

}  // namespace netcons::campaign
