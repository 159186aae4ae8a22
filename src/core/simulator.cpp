#include "core/simulator.hpp"

#include "telemetry/metrics.hpp"

#include <stdexcept>

namespace netcons {

Simulator::Simulator(Protocol protocol, int n, std::uint64_t seed,
                     std::unique_ptr<Scheduler> scheduler)
    : protocol_(std::move(protocol)),
      world_(protocol_, n),
      rng_(seed),
      scheduler_(scheduler ? std::move(scheduler) : std::make_unique<UniformRandomScheduler>()) {
  if (n < 2) throw std::invalid_argument("Simulator: need at least two nodes");
}

bool Simulator::naive_step() {
  const Encounter e = scheduler_->next(rng_, world_.size());
  ++steps_;
  return execute_encounter(e.first, e.second, world_.edge(e.first, e.second));
}

bool Simulator::step() { return naive_step(); }

bool Simulator::execute_encounter(int u, int v, bool c) {
  // Crashed nodes no longer interact; the scheduled encounter is wasted
  // (time still passes, matching the model where removed nodes simply do
  // not exist to meet).
  if (world_.dead_count() != 0 && (!world_.alive(u) || !world_.alive(v))) {
    return false;
  }
  const StateId a = world_.state(u);
  const StateId b = world_.state(v);
  const auto resolved = protocol_.resolve(a, b, c);
  if (resolved.rule == nullptr || !resolved.rule->effective) return false;

  const int initiator = resolved.swapped ? v : u;
  const int responder = resolved.swapped ? u : v;
  apply(*resolved.rule, initiator, responder, c);
  ++effective_steps_;
  return true;
}

void Simulator::apply(const RuleEntry& rule, int initiator, int responder, bool c) {
  const StateId a = world_.state(initiator);
  const StateId b = world_.state(responder);

  // PREL branch choice (probability 1/2 each), then the model's inherent
  // symmetry-breaking coin: when a == b and the chosen outcome has a' != b',
  // the assignment of a'/b' to the two nodes is equiprobable (Section 3.1).
  Outcome out = (rule.coin && rng_.coin()) ? rule.secondary : rule.primary;
  int first = initiator;
  int second = responder;
  if (a == b && out.a != out.b && rng_.coin()) std::swap(first, second);

  const bool out_first_before = protocol_.is_output_state(world_.state(first));
  const bool out_second_before = protocol_.is_output_state(world_.state(second));

  world_.set_state(first, out.a);
  world_.set_state(second, out.b);
  // Most effective rules keep the edge as it was; skipping that no-op write
  // spares the edge store a probe (set_edge would return false anyway).
  const bool edge_changed = out.edge != c && world_.set_edge(first, second, out.edge);

  const bool out_first_after = protocol_.is_output_state(out.a);
  const bool out_second_after = protocol_.is_output_state(out.b);

  const bool membership_changed =
      out_first_before != out_first_after || out_second_before != out_second_after;
  const bool output_edge_changed = edge_changed && out_first_after && out_second_after;
  // An edge flip also matters if both endpoints *were* output nodes before
  // the step (the edge leaves the output set with them).
  const bool output_edge_changed_before = edge_changed && out_first_before && out_second_before;

  if (membership_changed || output_edge_changed || output_edge_changed_before) {
    last_output_change_ = steps_;
  }
}

Simulator::StepOutcome Simulator::advance(std::uint64_t budget) {
  while (steps_ < budget) {
    if (naive_step()) return StepOutcome::kExecuted;
  }
  return StepOutcome::kBudgetExhausted;
}

void Simulator::run(std::uint64_t count) {
  const std::uint64_t target = saturating_add(steps_, count);
  while (steps_ < target) {
    if (advance(target) == StepOutcome::kQuiescent) {
      skip_steps(target - steps_);  // nothing left to execute; time still passes
      return;
    }
  }
}

std::optional<std::uint64_t> Simulator::run_until(
    const std::function<bool(const World&)>& pred, std::uint64_t max_steps) {
  if (pred(world_)) return steps_;
  while (steps_ < max_steps) {
    const StepOutcome out = advance(max_steps);
    if (out == StepOutcome::kQuiescent) {
      // The world can no longer change, so neither can the predicate.
      skip_steps(max_steps - steps_);
      return std::nullopt;
    }
    if (out == StepOutcome::kExecuted && pred(world_)) return steps_;
  }
  return std::nullopt;
}

ConvergenceReport Simulator::run_until_stable(const StabilityOptions& options) {
  const auto [check_interval, max_steps] = resolve_stability_budget(world_.size(), options);
  // Only a certificate, or a quiescence advance() cannot report, needs the
  // run to pause and look; otherwise it runs straight to the budget.
  const bool pause = options.certificate || !reports_quiescence();

  ConvergenceReport report;
  while (true) {
    if (options.certificate && options.certificate(protocol_, world_)) {
      report.stabilized = true;
      report.certified = true;
      break;
    }
    if (quiescent_now()) {
      report.stabilized = true;
      report.quiescent = true;
      break;
    }
    if (steps_ >= max_steps) break;
    const std::uint64_t checkpoint =
        pause ? std::min(max_steps, saturating_add(steps_, check_interval)) : max_steps;
    while (steps_ < checkpoint) {
      if (advance(checkpoint) == StepOutcome::kQuiescent) break;
    }
  }
  report.steps_executed = steps_;
  report.convergence_step = last_output_change_;
  return report;
}

bool Simulator::is_quiescent() const {
  const int n = world_.size();
  for (int v = 1; v < n; ++v) {
    if (!world_.alive(v)) continue;
    const StateId sv = world_.state(v);
    for (int u = 0; u < v; ++u) {
      if (!world_.alive(u)) continue;
      if (!protocol_.ineffective(world_.state(u), sv, world_.edge(u, v))) return false;
    }
  }
  return true;
}

void Simulator::publish_metrics(telemetry::Registry& registry) {
  // Campaigns publish once per trial; at tens of microseconds per trial the
  // name lookups themselves would show up in the overhead gate, so resolve
  // the handles once per (thread, registry) and reuse them (handles are
  // stable for the registry's lifetime; the id is never reused).
  struct Handles {
    std::uint64_t registry_id = 0;
    telemetry::Counter* steps = nullptr;
    telemetry::Counter* effective = nullptr;
    telemetry::Counter* ineffective = nullptr;
  };
  thread_local Handles handles;
  if (handles.registry_id != registry.id()) {
    handles.steps = &registry.counter("engine.steps");
    handles.effective = &registry.counter("engine.effective_steps");
    handles.ineffective = &registry.counter("engine.ineffective_steps");
    handles.registry_id = registry.id();
  }
  handles.steps->add(steps_);
  handles.effective->add(effective_steps_);
  // Clock steps that changed nothing. The naive engine *executed* all of
  // them; CensusEngine mostly skipped them wholesale (its share of skips is
  // broken out separately as census.geometric_skips).
  handles.ineffective->add(steps_ - effective_steps_);
}

bool Simulator::is_edge_quiescent() const {
  const int n = world_.size();
  for (int v = 1; v < n; ++v) {
    if (!world_.alive(v)) continue;
    const StateId sv = world_.state(v);
    for (int u = 0; u < v; ++u) {
      if (!world_.alive(u)) continue;
      if (protocol_.can_modify_edge(world_.state(u), sv, world_.edge(u, v))) return false;
    }
  }
  return true;
}

}  // namespace netcons
