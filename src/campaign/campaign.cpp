#include "campaign/campaign.hpp"

#include "campaign/job_queue.hpp"
#include "campaign/seeds.hpp"
#include "faults/fault_session.hpp"
#include "telemetry/heartbeat.hpp"
#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <new>
#include <thread>

namespace netcons::campaign {

namespace {

struct Point {
  const Unit* unit = nullptr;
  const SchedulerOption* scheduler = nullptr;
  const faults::FaultPlan* fault_plan = nullptr;
  const EngineOption* engine = nullptr;
  int n = 0;
  std::uint64_t seed = 0;  ///< Base of this point's per-trial seed stream.
};

/// The canonical grid expansion (unit-major, then scheduler, then fault
/// plan, then engine, then n) with live spec pointers. expand_grid()
/// derives the public GridPoint descriptors from this, so the two can
/// never disagree on order.
std::vector<Point> expand_points(const CampaignSpec& spec) {
  static const SchedulerOption kUniform{};
  std::vector<const SchedulerOption*> schedulers;
  if (spec.schedulers.empty()) {
    schedulers.push_back(&kUniform);
  } else {
    for (const auto& option : spec.schedulers) schedulers.push_back(&option);
  }

  static const faults::FaultPlan kNoFaults{};
  std::vector<const faults::FaultPlan*> fault_plans;
  if (spec.faults.empty()) {
    fault_plans.push_back(&kNoFaults);
  } else {
    for (const auto& plan : spec.faults) fault_plans.push_back(&plan);
  }

  static const EngineOption kNaive{};
  std::vector<const EngineOption*> engines;
  if (spec.engines.empty()) {
    engines.push_back(&kNaive);
  } else {
    for (const auto& option : spec.engines) engines.push_back(&option);
  }

  std::vector<Point> points;
  points.reserve(spec.units.size() * schedulers.size() * fault_plans.size() *
                 engines.size() * spec.ns.size());
  for (const auto& unit : spec.units) {
    for (const auto* scheduler : schedulers) {
      for (const auto* fault_plan : fault_plans) {
        for (const auto* engine : engines) {
          for (const int n : spec.ns) {
            Point point;
            point.unit = &unit;
            point.scheduler = scheduler;
            point.fault_plan = fault_plan;
            point.engine = engine;
            point.n = n;
            point.seed = point_seed(spec.base_seed, points.size());
            points.push_back(point);
          }
        }
      }
    }
  }
  return points;
}

/// One pool job: a (point, trial) slot this invocation will execute.
struct Task {
  std::size_t point = 0;
  int trial = 0;
};

TrialOutcome run_unit_trial(const Unit& unit, int n, std::uint64_t seed,
                            const SchedulerFactory& make_scheduler,
                            const faults::FaultPlan& fault_plan,
                            const EngineFactory& make_engine) {
  if (const auto* protocol = std::get_if<ProtocolSpec>(&unit.spec)) {
    return run_protocol_trial(*protocol, n, seed, make_scheduler, fault_plan, make_engine);
  }
  return run_process_trial(std::get<ProcessSpec>(unit.spec), n, seed, make_scheduler,
                           fault_plan, make_engine);
}


/// Shared trial-failure policy: trial-level throws become a failed outcome
/// with the message captured; std::bad_alloc propagates (infrastructure
/// failure, not a property of the trial).
template <typename Body>
TrialOutcome guarded_trial(Body&& body) {
  TrialOutcome outcome;
  try {
    body(outcome);
  } catch (const std::bad_alloc&) {
    throw;
  } catch (const std::exception& e) {
    outcome.success = false;
    outcome.error = e.what();
  } catch (...) {
    outcome.success = false;
    outcome.error = "unknown exception";
  }
  return outcome;
}

}  // namespace

int resolve_threads(int requested) noexcept {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::unique_ptr<Engine> instantiate_engine(const EngineFactory& make_engine,
                                           const Protocol& protocol, int n, std::uint64_t seed,
                                           const SchedulerFactory& make_scheduler) {
  std::unique_ptr<Scheduler> scheduler = make_scheduler ? make_scheduler() : nullptr;
  if (make_engine) return make_engine(protocol, n, seed, std::move(scheduler));
  return std::make_unique<Simulator>(protocol, n, seed, std::move(scheduler));
}

TrialOutcome run_protocol_trial(const ProtocolSpec& spec, int n, std::uint64_t seed,
                                const SchedulerFactory& make_scheduler,
                                const faults::FaultPlan& fault_plan,
                                const EngineFactory& make_engine) {
  return guarded_trial([&](TrialOutcome& outcome) {
    const std::unique_ptr<Engine> engine =
        instantiate_engine(make_engine, spec.protocol, n, seed, make_scheduler);
    Engine& sim = *engine;
    if (spec.initialize) spec.initialize(sim.mutable_world());

    Engine::StabilityOptions options;
    if (spec.max_steps) options.max_steps = spec.max_steps(n);
    options.certificate = spec.certificate;

    faults::FaultSession session(fault_plan, seed);
    const ConvergenceReport report =
        faults::run_until_stable_with_faults(sim, session, options);

    const bool target_ok = report.stabilized && spec.target
                               ? spec.target(sim.world().output_graph(spec.protocol))
                               : report.stabilized;
    if (telemetry::Registry* reg = telemetry::registry()) sim.publish_metrics(*reg);
    outcome.value = report.convergence_step;
    outcome.steps_executed = report.steps_executed;
    outcome.target_ok = target_ok;
    outcome.faults_injected = report.faults_injected;
    outcome.recovery_steps = report.recovery_steps;
    outcome.edges_deleted = report.output_edges_deleted;
    outcome.edges_repaired = report.output_edges_repaired;
    outcome.edges_residual = report.output_edges_residual;
    // Under faults the trial succeeds by re-stabilizing; a missed target is
    // residual damage (aggregated as `damaged`), not a failed trial.
    outcome.success = fault_plan.empty() ? report.stabilized && target_ok : report.stabilized;
  });
}

TrialOutcome run_process_trial(const ProcessSpec& spec, int n, std::uint64_t seed,
                               const SchedulerFactory& make_scheduler,
                               const faults::FaultPlan& fault_plan,
                               const EngineFactory& make_engine) {
  return guarded_trial([&](TrialOutcome& outcome) {
    const std::unique_ptr<Engine> engine =
        instantiate_engine(make_engine, spec.protocol, n, seed, make_scheduler);
    Engine& sim = *engine;
    if (spec.initialize) spec.initialize(sim.mutable_world());
    Engine::StabilityOptions options;
    options.max_steps = process_step_budget(spec, n);
    faults::FaultSession session(fault_plan, seed);
    const ConvergenceReport report =
        faults::run_until_stable_with_faults(sim, session, options, spec.done);
    if (telemetry::Registry* reg = telemetry::registry()) sim.publish_metrics(*reg);
    outcome.steps_executed = report.steps_executed;
    outcome.faults_injected = report.faults_injected;
    outcome.recovery_steps = report.recovery_steps;
    // The damage ledger is measured against the completion configuration
    // instead of a stable one.
    outcome.edges_deleted = report.output_edges_deleted;
    outcome.edges_repaired = report.output_edges_repaired;
    outcome.edges_residual = report.output_edges_residual;
    if (report.stabilized) {
      outcome.success = true;
      outcome.target_ok = true;  // completion IS the process's target
      outcome.value = report.convergence_step;
    }
  });
}

std::vector<GridPoint> expand_grid(const CampaignSpec& spec) {
  std::vector<GridPoint> grid;
  const std::vector<Point> points = expand_points(spec);
  grid.reserve(points.size());
  for (const Point& point : points) {
    GridPoint g;
    g.unit = point.unit->name;
    g.scheduler = point.scheduler->name;
    g.faults = point.fault_plan->name;
    g.engine = point.engine->name;
    g.faulted = !point.fault_plan->empty();
    g.n = point.n;
    g.seed = point.seed;
    grid.push_back(std::move(g));
  }
  return grid;
}

CampaignResult reduce_outcomes(const std::vector<GridPoint>& grid, int trials,
                               const std::vector<std::vector<TrialOutcome>>& outcomes) {
  CampaignResult result;
  result.points.reserve(grid.size());
  for (std::size_t p = 0; p < grid.size(); ++p) {
    PointResult point_result;
    point_result.unit = grid[p].unit;
    point_result.scheduler = grid[p].scheduler;
    point_result.faults = grid[p].faults;
    point_result.engine = grid[p].engine;
    point_result.n = grid[p].n;
    point_result.trials = trials;
    point_result.seed = grid[p].seed;
    const bool faulted = grid[p].faulted;
    for (const TrialOutcome& outcome : outcomes[p]) {
      point_result.steps_executed.add(static_cast<double>(outcome.steps_executed));
      if (faulted) {
        point_result.faults_injected.add(static_cast<double>(outcome.faults_injected));
        point_result.edges_deleted.add(static_cast<double>(outcome.edges_deleted));
        point_result.edges_repaired.add(static_cast<double>(outcome.edges_repaired));
        point_result.edges_residual.add(static_cast<double>(outcome.edges_residual));
      }
      if (outcome.success) {
        point_result.convergence_steps.add(static_cast<double>(outcome.value));
        if (faulted) {
          point_result.recovery_steps.add(static_cast<double>(outcome.recovery_steps));
          if (!outcome.target_ok) ++point_result.damaged;
        }
      } else {
        ++point_result.failures;
        if (point_result.first_error.empty()) point_result.first_error = outcome.error;
      }
    }
    result.total_failures += static_cast<std::uint64_t>(point_result.failures);
    result.points.push_back(std::move(point_result));
  }
  result.total_trials =
      static_cast<std::uint64_t>(trials) * static_cast<std::uint64_t>(grid.size());
  return result;
}

CampaignResult run(const CampaignSpec& spec, const RunOptions& options) {
  const auto start = std::chrono::steady_clock::now();

  const std::vector<Point> points = expand_points(spec);
  const int trials = std::max(spec.trials, 0);
  const int threads = resolve_threads(options.threads);

  // One pre-assigned slot per trial: workers never contend on output.
  // `filled[slot]` records whether the slot holds a real outcome (resumed
  // or executed); a default-constructed slot must never reach reduction.
  std::vector<std::vector<TrialOutcome>> outcomes(points.size());
  for (auto& slots : outcomes) slots.resize(static_cast<std::size_t>(trials));
  const std::size_t slot_count = points.size() * static_cast<std::size_t>(trials);
  std::vector<char> filled(slot_count, 0);
  const auto slot_of = [trials](std::size_t p, int t) {
    return p * static_cast<std::size_t>(trials) + static_cast<std::size_t>(t);
  };

  CampaignResult result;

  // Resume: fill slots from previously recorded outcomes (any shard's).
  if (options.resume) {
    for (const auto& [key, outcome] : *options.resume) {
      const auto& [p, t] = key;
      if (p >= points.size() || t < 0 || t >= trials) continue;
      outcomes[p][static_cast<std::size_t>(t)] = outcome;
      filled[slot_of(p, t)] = 1;
      ++result.resumed_trials;
    }
  }

  // The task list: every unfilled slot the filter selects, largest n
  // first. A trial's cost grows polynomially in n, so the biggest trials
  // start while the rest of the list keeps every worker busy behind them;
  // in grid order they would start last and run out the clock alone. The
  // stable sort keeps grid order among equal n, so the order (and with it
  // which trials a trial cap executes) is deterministic.
  std::vector<Task> tasks;
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (int t = 0; t < trials; ++t) {
      if (filled[slot_of(p, t)]) continue;
      if (options.select && !options.select(p, t)) continue;
      tasks.push_back(Task{p, t});
    }
  }
  std::stable_sort(tasks.begin(), tasks.end(), [&points](const Task& a, const Task& b) {
    return points[a.point].n > points[b.point].n;
  });
  // The trial cap executes a prefix of the task list and leaves the rest
  // unexecuted (and unrecorded), exactly as if the process had been
  // killed -- but with records flushed, so a --resume run completes it.
  if (options.trial_cap > 0 && options.trial_cap < tasks.size()) {
    tasks.resize(static_cast<std::size_t>(options.trial_cap));
  }

  if (options.monitor) {
    options.monitor->begin(static_cast<std::uint64_t>(tasks.size()), threads);
  }

  // One trial per job: the atomic cursor hands the next-largest trial to
  // whichever worker frees up first.
  run_jobs(tasks.size(), threads, [&](std::size_t job) {
    const auto job_start = std::chrono::steady_clock::now();
    const Task& task = tasks[job];
    const Point& point = points[task.point];
    const std::uint64_t seed = SeedStream(point.seed).at(static_cast<std::uint64_t>(task.trial));
    NETCONS_TM_SAMPLED_SPAN(trial_span, "trial", "campaign");
    TrialOutcome outcome = run_unit_trial(*point.unit, point.n, seed, point.scheduler->make,
                                          *point.fault_plan, point.engine->make);
    outcomes[task.point][static_cast<std::size_t>(task.trial)] = outcome;
    filled[slot_of(task.point, task.trial)] = 1;
    if (options.on_trial) options.on_trial(task.point, task.trial, seed, outcome);
    if (options.monitor) {
      options.monitor->record_job(
          1, std::chrono::duration<double>(std::chrono::steady_clock::now() - job_start).count());
    }
  });

  if (options.monitor) options.monitor->end();

  std::uint64_t filled_count = 0;
  for (const char f : filled) filled_count += static_cast<std::uint64_t>(f);
  result.executed_trials = filled_count - result.resumed_trials;
  result.complete = filled_count == slot_count;
  result.total_trials =
      static_cast<std::uint64_t>(trials) * static_cast<std::uint64_t>(points.size());

  if (result.complete) {
    // Sequential reduction in (point, trial) order: this is what makes the
    // aggregates independent of thread count, dispatch order, sharding, and
    // resume history.
    CampaignResult reduced = reduce_outcomes(expand_grid(spec), trials, outcomes);
    result.points = std::move(reduced.points);
    result.total_failures = reduced.total_failures;
  } else {
    // Partial grid: a summary would misrepresent unfilled slots, so only
    // the failure count over filled slots is reported.
    for (std::size_t p = 0; p < points.size(); ++p) {
      for (int t = 0; t < trials; ++t) {
        if (filled[slot_of(p, t)] && !outcomes[p][static_cast<std::size_t>(t)].success) {
          ++result.total_failures;
        }
      }
    }
  }
  result.threads = threads;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return result;
}

}  // namespace netcons::campaign
