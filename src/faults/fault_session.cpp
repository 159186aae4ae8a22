#include "faults/fault_session.hpp"

#include "telemetry/telemetry.hpp"
#include "util/saturating.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace netcons::faults {

namespace {

/// Active edges with both endpoints alive (the kill() invariant guarantees
/// dead nodes are edge-free, so aliveness needs no re-check here), in
/// World::for_each_active_edge order: pair_index order (v-major, then u)
/// at every n, whichever edge storage the world uses.
std::vector<std::pair<int, int>> active_edge_list(const World& world) {
  std::vector<std::pair<int, int>> out;
  out.reserve(static_cast<std::size_t>(world.active_edge_count()));
  world.for_each_active_edge([&](int u, int v) { out.emplace_back(u, v); });
  return out;
}

bool is_output_edge(const Protocol& protocol, const World& world, int u, int v) {
  return protocol.is_output_state(world.state(u)) && protocol.is_output_state(world.state(v));
}

std::vector<int> alive_nodes(const World& world) {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(world.alive_count()));
  for (int u = 0; u < world.size(); ++u) {
    if (world.alive(u)) out.push_back(u);
  }
  return out;
}

/// First `count` elements of a partial Fisher-Yates shuffle of `pool`.
template <typename T>
void select_prefix(std::vector<T>& pool, std::size_t count, Rng& rng) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.below(pool.size() - i));
    std::swap(pool[i], pool[j]);
  }
}

/// The library's leader-naming convention: leader/walker states start with
/// 'l' (l, l', l0.., la, lb..) or 'w' (the walking leader of the line
/// protocols). See the target= grammar note in fault_plan.hpp.
bool is_leader_state(const Protocol& protocol, StateId s) {
  const std::string& name = protocol.state_name(s);
  return !name.empty() && (name.front() == 'l' || name.front() == 'w');
}

/// Arrange `pool` so its first `count` entries are the chosen victims,
/// honoring the event's target selector.
void select_victims(std::vector<int>& pool, std::size_t count, VictimTarget target,
                    const Protocol& protocol, const World& world, Rng& rng) {
  switch (target) {
    case VictimTarget::Random:
      select_prefix(pool, count, rng);
      return;
    case VictimTarget::MaxDegree:
      // The adversary always hits the hubs: highest active degree first,
      // ties by lowest id (deterministic given the configuration).
      std::sort(pool.begin(), pool.end(), [&world](int a, int b) {
        const int da = world.active_degree(a);
        const int db = world.active_degree(b);
        return da != db ? da > db : a < b;
      });
      return;
    case VictimTarget::Leader: {
      // Leaders first (in random order among themselves), padded with
      // random non-leaders when fewer than `count` leaders are alive.
      const auto mid = std::stable_partition(pool.begin(), pool.end(), [&](int u) {
        return is_leader_state(protocol, world.state(u));
      });
      const auto leaders = static_cast<std::size_t>(mid - pool.begin());
      std::vector<int> head(pool.begin(), mid);
      select_prefix(head, std::min(count, leaders), rng);
      std::copy(head.begin(), head.end(), pool.begin());
      if (count > leaders) {
        std::vector<int> tail(mid, pool.end());
        select_prefix(tail, count - leaders, rng);
        std::copy(tail.begin(), tail.end(), mid);
      }
      return;
    }
  }
}

}  // namespace

std::uint64_t output_edge_count(const Protocol& protocol, const World& world) {
  std::uint64_t count = 0;
  world.for_each_active_edge([&](int u, int v) {
    if (is_output_edge(protocol, world, u, v)) ++count;
  });
  return count;
}

FaultSession::FaultSession(FaultPlan plan, std::uint64_t seed)
    : plan_(std::move(plan)), rng_(trial_seed(seed, kFaultSeedStream)) {}

void FaultSession::ensure_armed(const Engine& sim) {
  if (armed_) return;
  armed_ = true;
  const auto n = static_cast<std::uint64_t>(sim.world().size());
  armed_events_.reserve(plan_.events.size());
  for (const FaultEvent& event : plan_.events) {
    Armed armed;
    armed.event = event;
    if (event.kind == FaultKind::EdgeRate) {
      // Steps [at, at + window) each delete w.p. p, so the firings fall on
      // clock readings [at - 1, at + window - 2]; the first one a
      // Geometric(p) gap in.
      const std::uint64_t window = event.window ? event.window : 16 * n * n;
      armed.window_first = (event.at ? event.at : 1) - 1;
      armed.window_last = saturating_add(armed.window_first, window - 1);
      armed.next_at = saturating_add(armed.window_first, rng_.geometric_failures(event.rate));
    } else if (!event.stabilization_triggered()) {
      armed.next_at = (event.at ? event.at : event.every) - 1;
    }
    armed_events_.push_back(armed);
  }
}

bool FaultSession::scheduled_pending(const Armed& armed) noexcept {
  if (armed.event.kind == FaultKind::EdgeRate) return armed.next_at <= armed.window_last;
  return !armed.event.stabilization_triggered() && armed.fired < armed.event.times;
}

std::optional<std::uint64_t> FaultSession::next_event_step(const Engine& sim) {
  ensure_armed(sim);
  std::optional<std::uint64_t> next;
  for (const Armed& armed : armed_events_) {
    if (!scheduled_pending(armed)) continue;
    const std::uint64_t candidate = std::max(armed.next_at, sim.steps());
    if (!next || candidate < *next) next = candidate;
  }
  return next;
}

void FaultSession::fire_due(Engine& sim) {
  ensure_armed(sim);
  const std::uint64_t now = sim.steps();
  for (Armed& armed : armed_events_) {
    while (scheduled_pending(armed) && armed.next_at <= now) {
      if (armed.event.kind == FaultKind::EdgeRate) {
        delete_one_random_edge(sim);
        armed.next_at = saturating_add(now + 1, rng_.geometric_failures(armed.event.rate));
      } else {
        fire_burst(sim, armed);
        // Without a period a burst fires once (the grammar requires every=E
        // for times > 1).
        armed.fired = armed.event.every ? armed.fired + 1 : armed.event.times;
        armed.next_at = saturating_add(armed.next_at, armed.event.every);
      }
    }
  }
}

bool FaultSession::rate_window_open(const Engine& sim) {
  ensure_armed(sim);
  return std::any_of(armed_events_.begin(), armed_events_.end(), [&](const Armed& armed) {
    return armed.event.kind == FaultKind::EdgeRate && scheduled_pending(armed) &&
           sim.steps() >= armed.window_first;
  });
}

bool FaultSession::fire_on_stabilization(Engine& sim) {
  ensure_armed(sim);
  bool fired = false;
  for (Armed& armed : armed_events_) {
    if (armed.event.stabilization_triggered() && armed.fired == 0) {
      fire_burst(sim, armed);
      armed.fired = 1;
      fired = true;
    }
  }
  return fired;
}

std::uint64_t FaultSession::episode_bound() const noexcept {
  std::uint64_t episodes = 0;
  for (const FaultEvent& event : plan_.events) {
    if (event.kind == FaultKind::EdgeRate) {
      episodes += 2;  // the window itself plus one recovery phase
    } else {
      episodes += static_cast<std::uint64_t>(event.times);
    }
  }
  return std::min<std::uint64_t>(episodes, 64);
}

void FaultSession::fire_burst(Engine& sim, Armed& armed) {
  World& world = sim.mutable_world();
  const Protocol& protocol = sim.protocol();
  std::uint64_t deleted_output = 0;
  bool membership_changed = false;

  std::size_t victims = 0;
  switch (armed.event.kind) {
    case FaultKind::Crash: {
      std::vector<int> alive = alive_nodes(world);
      // Always leave at least one survivor so the population stays a system.
      victims = std::min<std::size_t>(static_cast<std::size_t>(armed.event.count),
                                      alive.empty() ? 0 : alive.size() - 1);
      select_victims(alive, victims, armed.event.target, protocol, world, rng_);
      for (std::size_t i = 0; i < victims; ++i) {
        const int u = alive[i];
        membership_changed = membership_changed || protocol.is_output_state(world.state(u));
        for (const int v : world.active_neighbors(u)) {
          if (is_output_edge(protocol, world, u, v)) ++deleted_output;
        }
        world.kill(u);
      }
      break;
    }
    case FaultKind::EdgeBurst: {
      std::vector<std::pair<int, int>> edges = active_edge_list(world);
      victims = std::min<std::size_t>(
          static_cast<std::size_t>(
              std::ceil(armed.event.fraction * static_cast<double>(edges.size()))),
          edges.size());
      select_prefix(edges, victims, rng_);
      for (std::size_t i = 0; i < victims; ++i) {
        const auto [u, v] = edges[i];
        if (is_output_edge(protocol, world, u, v)) ++deleted_output;
        world.set_edge(u, v, false);
      }
      break;
    }
    case FaultKind::Reset: {
      std::vector<int> alive = alive_nodes(world);
      victims = std::min<std::size_t>(static_cast<std::size_t>(armed.event.count), alive.size());
      select_victims(alive, victims, armed.event.target, protocol, world, rng_);
      const StateId q0 = protocol.initial_state();
      for (std::size_t i = 0; i < victims; ++i) {
        const int u = alive[i];
        membership_changed = membership_changed ||
                             protocol.is_output_state(world.state(u)) !=
                                 protocol.is_output_state(q0);
        world.set_state(u, q0);
      }
      break;
    }
    case FaultKind::EdgeRate:
      break;  // rate events never fire as bursts
  }

  // A firing that perturbed nothing (no victims left, no edges to delete)
  // is not a fault event: it must not inflate faults_injected or move
  // last_fault_step, which recovery_steps is measured from.
  if (victims > 0) record_firing(sim, deleted_output, membership_changed);
}

void FaultSession::delete_one_random_edge(Engine& sim) {
  World& world = sim.mutable_world();
  const auto edges = static_cast<std::uint64_t>(world.active_edge_count());
  if (edges == 0) return;  // nothing to delete; not a firing
  // Every edge owns two of the 2m endpoint slots, so a uniform slot (a
  // node by degree, then one of its neighbors) is a uniform edge, in O(n)
  // rather than a walk over the whole edge store.
  std::uint64_t slot = rng_.below(2 * edges);
  int u = 0;
  for (; slot >= static_cast<std::uint64_t>(world.active_degree(u)); ++u) {
    slot -= static_cast<std::uint64_t>(world.active_degree(u));
  }
  const int v = world.active_neighbors(u)[static_cast<std::size_t>(slot)];
  const bool output = is_output_edge(sim.protocol(), world, u, v);
  world.set_edge(u, v, false);
  record_firing(sim, output ? 1 : 0, false);
}

void FaultSession::record_firing(Engine& sim, std::uint64_t deleted_output,
                                 bool membership_changed) {
  ++faults_injected_;
  NETCONS_TM_COUNT("faults.injected", 1);
  last_fault_step_ = sim.steps();
  output_edges_deleted_ += deleted_output;
  output_edges_after_damage_ = output_edge_count(sim.protocol(), sim.world());
  if (deleted_output > 0 || membership_changed) sim.note_output_change();
}

ConvergenceReport run_until_stable_with_faults(Engine& sim, FaultSession& session,
                                               const Engine::StabilityOptions& options,
                                               const std::function<bool(const World&)>& done) {
  if (session.plan().empty() && !done) return sim.run_until_stable(options);
  const Engine::StabilityBudget budget =
      Engine::resolve_stability_budget(sim.world().size(), options);
  const std::uint64_t check_interval = budget.check_interval;
  const std::uint64_t phase_budget = budget.max_steps;
  // A process's budget covers its whole run. A protocol's covers one
  // phase, and every firing opens a new one, up to a total cap.
  const std::uint64_t total_cap =
      done ? phase_budget : saturating_mul(phase_budget, session.episode_bound() + 1);
  const auto renewed = [&] {
    return std::min(total_cap, saturating_add(sim.steps(), phase_budget));
  };
  if (done) (void)session.fire_on_stabilization(sim);  // nothing to wait for

  ConvergenceReport report;
  std::uint64_t deadline = renewed();
  while (true) {
    const std::optional<std::uint64_t> next = session.next_event_step(sim);
    if (next == sim.steps()) {
      session.fire_due(sim);
      deadline = renewed();
      continue;
    }
    const std::uint64_t cap = next ? std::min(deadline, *next) : deadline;
    if (done) {
      const std::optional<std::uint64_t> at = sim.run_until(done, cap);
      report.stabilized = at.has_value();
      report.convergence_step = at.value_or(0);
    } else if (next == cap &&
               (session.rate_window_open(sim) || cap - sim.steps() < check_interval)) {
      sim.run(cap - sim.steps());  // no stability check is due before the event
      continue;
    } else {
      Engine::StabilityOptions phase = options;
      phase.max_steps = cap;
      const std::uint64_t origin = sim.steps();
      report = sim.run_until_stable(phase);
      // The census engine sees quiescence at the step it happens, the naive
      // engine at its next check point (origin + k * check_interval, or the
      // cap). Move on to that point, so both engines time what follows by
      // the same law.
      const std::uint64_t checks = (sim.steps() - origin + check_interval - 1) / check_interval;
      const std::uint64_t checked = std::min(cap, origin + checks * check_interval);
      if (report.stabilized && checked > sim.steps()) sim.run(checked - sim.steps());
    }
    if (!report.stabilized) {
      if (sim.steps() >= deadline) break;
      continue;  // stopped at the next event
    }
    if (done) break;  // a process ends at completion
    if (session.fire_on_stabilization(sim)) {
      deadline = renewed();
      continue;
    }
    if (!next) break;  // stable, and nothing left to fire
    if (*next >= total_cap) {
      // The remaining schedule lies beyond the budget; report the timeout
      // honestly rather than pretending the plan completed.
      report.stabilized = false;
      break;
    }
    sim.run(*next - sim.steps());
  }
  report.steps_executed = sim.steps();
  if (!done) report.convergence_step = sim.last_output_change();
  report.faults_injected = session.faults_injected();
  if (report.faults_injected == 0) return report;
  // The damage ledger, against the final configuration: output edges
  // deleted by faults vs. rebuilt (by count) vs. still missing.
  report.last_fault_step = session.last_fault_step();
  report.recovery_steps = report.convergence_step > report.last_fault_step
                              ? report.convergence_step - report.last_fault_step
                              : 0;
  const std::uint64_t final_edges = output_edge_count(sim.protocol(), sim.world());
  const std::uint64_t after = session.output_edges_after_damage();
  const std::uint64_t rebuilt = final_edges > after ? final_edges - after : 0;
  report.output_edges_deleted = session.output_edges_deleted();
  report.output_edges_repaired = std::min(rebuilt, report.output_edges_deleted);
  report.output_edges_residual = report.output_edges_deleted - report.output_edges_repaired;
  return report;
}

}  // namespace netcons::faults
