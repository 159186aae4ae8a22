#include "faults/fault_session.hpp"

#include "core/census_engine.hpp"
#include "graph/predicates.hpp"
#include "protocols/protocols.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

namespace netcons::faults {
namespace {

TEST(FaultSession, EmptyPlanMatchesFaultFreeRun) {
  const ProtocolSpec spec = protocols::global_star();
  Simulator plain(spec.protocol, 16, 7);
  const ConvergenceReport expected = plain.run_until_stable();

  Simulator faulted(spec.protocol, 16, 7);
  FaultSession session(parse_fault_plan("none"), 7);
  const ConvergenceReport actual = run_until_stable_with_faults(faulted, session);

  EXPECT_EQ(actual.stabilized, expected.stabilized);
  EXPECT_EQ(actual.convergence_step, expected.convergence_step);
  EXPECT_EQ(actual.steps_executed, expected.steps_executed);
  EXPECT_EQ(actual.faults_injected, 0u);
}

TEST(FaultSession, CrashRemovesNodesAndReStabilizes) {
  const ProtocolSpec spec = protocols::global_star();
  const int n = 20;
  Simulator sim(spec.protocol, n, 42);
  FaultSession session(parse_fault_plan("crash:k=3"), 42);
  const ConvergenceReport report = run_until_stable_with_faults(sim, session);

  EXPECT_TRUE(report.stabilized);
  EXPECT_EQ(report.faults_injected, 1u);  // one burst event, three victims
  EXPECT_GT(report.last_fault_step, 0u);
  EXPECT_EQ(sim.world().alive_count(), n - 3);
  EXPECT_EQ(sim.world().dead_count(), 3);
  // Dead nodes carry no edges.
  for (int u = 0; u < n; ++u) {
    if (!sim.world().alive(u)) {
      EXPECT_EQ(sim.world().active_degree(u), 0);
    }
  }
}

TEST(FaultSession, GlobalStarRepairsEdgeBurstCompletely) {
  // (c, p, 0) -> (c, p, 1) reconnects severed leaves: the star is one of
  // the few protocols here that repairs edge faults back to the target.
  const ProtocolSpec spec = protocols::global_star();
  Simulator sim(spec.protocol, 24, 3);
  FaultSession session(parse_fault_plan("edge-burst:f=0.5"), 3);
  const ConvergenceReport report = run_until_stable_with_faults(sim, session);

  ASSERT_TRUE(report.stabilized);
  EXPECT_EQ(report.faults_injected, 1u);
  EXPECT_GT(report.output_edges_deleted, 0u);
  EXPECT_EQ(report.output_edges_repaired, report.output_edges_deleted);
  EXPECT_EQ(report.output_edges_residual, 0u);
  EXPECT_GT(report.recovery_steps, 0u);
  EXPECT_TRUE(is_spanning_star(sim.world().output_graph(spec.protocol)));
}

TEST(FaultSession, SimpleGlobalLineKeepsResidualDamageAfterCrash) {
  // Crashing a line node leaves q2 interior nodes that no rule can rewire:
  // the configuration re-stabilizes but the spanning line is gone.
  const ProtocolSpec spec = protocols::simple_global_line();
  Simulator sim(spec.protocol, 12, 11);
  FaultSession session(parse_fault_plan("crash:k=1"), 11);
  Simulator::StabilityOptions options;
  options.max_steps = spec.max_steps(12);
  const ConvergenceReport report = run_until_stable_with_faults(sim, session, options);

  ASSERT_TRUE(report.stabilized);
  EXPECT_EQ(report.faults_injected, 1u);
  EXPECT_EQ(sim.world().alive_count(), 11);
}

TEST(FaultSession, ResetReturnsNodesToInitialState) {
  const ProtocolSpec spec = protocols::global_star();
  Simulator sim(spec.protocol, 16, 5);
  (void)sim.run_until_stable();
  const StateId q0 = spec.protocol.initial_state();
  ASSERT_EQ(sim.world().census(q0), 1);  // the lone center

  FaultSession session(parse_fault_plan("reset:k=4"), 5);
  ASSERT_TRUE(session.fire_on_stabilization(sim));
  // Reset keeps nodes and edges but returns states to q0 (= c here; the
  // ex-center may be among the victims, hence at least 4 centers).
  EXPECT_EQ(sim.world().alive_count(), 16);
  EXPECT_GE(sim.world().census(q0), 4);
  EXPECT_GE(sim.world().active_edge_count(), 1);

  // Global-Star does NOT recover the target from resets: a reset node in c
  // that kept its edge to the center forms a (c, c, 1) pair, for which no
  // rule exists -- the system re-stabilizes into a multi-hub graph. That
  // residual damage is the measurement, so only re-stabilization is
  // guaranteed here.
  const ConvergenceReport report = run_until_stable_with_faults(sim, session);
  EXPECT_TRUE(report.stabilized);
}

TEST(FaultSession, ScheduledAndPeriodicEventsFireBySchedule) {
  const ProtocolSpec spec = protocols::global_star();
  Simulator sim(spec.protocol, 16, 9);
  FaultSession session(parse_fault_plan("edge-burst:f=0.2:at=50:every=100:times=3"), 9);
  const ConvergenceReport report = run_until_stable_with_faults(sim, session);

  ASSERT_TRUE(report.stabilized);
  EXPECT_EQ(report.faults_injected, 3u);
  EXPECT_GE(report.last_fault_step, 250u - 1);  // third firing at step ~250
}

TEST(FaultSession, RateWindowInjectsAndThenCloses) {
  const ProtocolSpec spec = protocols::global_star();
  Simulator sim(spec.protocol, 16, 13);
  // High rate over a short window: essentially guaranteed deletions.
  FaultSession session(parse_fault_plan("edge-rate:p=0.05:for=2000"), 13);
  const ConvergenceReport report = run_until_stable_with_faults(sim, session);

  ASSERT_TRUE(report.stabilized);
  EXPECT_GT(report.faults_injected, 0u);
  EXPECT_LE(report.last_fault_step, 2000u);
  EXPECT_TRUE(is_spanning_star(sim.world().output_graph(spec.protocol)));
}

TEST(FaultSession, IdenticalPlanAndSeedGiveIdenticalTrajectories) {
  const ProtocolSpec spec = protocols::cycle_cover();
  for (const char* plan : {"crash:k=2", "edge-burst:f=0.3", "edge-rate:p=0.01:for=500"}) {
    Simulator a(spec.protocol, 18, 77);
    FaultSession sa(parse_fault_plan(plan), 77);
    const ConvergenceReport ra = run_until_stable_with_faults(a, sa);

    Simulator b(spec.protocol, 18, 77);
    FaultSession sb(parse_fault_plan(plan), 77);
    const ConvergenceReport rb = run_until_stable_with_faults(b, sb);

    EXPECT_EQ(ra.steps_executed, rb.steps_executed) << plan;
    EXPECT_EQ(ra.convergence_step, rb.convergence_step) << plan;
    EXPECT_EQ(ra.faults_injected, rb.faults_injected) << plan;
    EXPECT_EQ(ra.last_fault_step, rb.last_fault_step) << plan;
    EXPECT_EQ(ra.output_edges_deleted, rb.output_edges_deleted) << plan;
    for (int u = 0; u < 18; ++u) {
      EXPECT_EQ(a.world().alive(u), b.world().alive(u)) << plan;
      if (a.world().alive(u) && b.world().alive(u)) {
        EXPECT_EQ(a.world().state(u), b.world().state(u)) << plan;
      }
    }
  }
}

TEST(FaultSession, FaultRngIsIndependentOfSimulatorStream) {
  // The victims chosen must not depend on how many draws the simulator
  // consumed: two different schedule prefixes, same session seed, same
  // victims. We check via the deleted-node set of an immediate crash.
  const ProtocolSpec spec = protocols::global_star();

  auto crashed_set = [&](std::uint64_t sim_seed) {
    Simulator sim(spec.protocol, 16, sim_seed);
    sim.run(123);  // consume an arbitrary amount of simulator randomness
    FaultSession session(parse_fault_plan("crash:k=3"), 555);
    (void)session.fire_on_stabilization(sim);
    std::vector<int> dead;
    for (int u = 0; u < 16; ++u) {
      if (!sim.world().alive(u)) dead.push_back(u);
    }
    return dead;
  };

  EXPECT_EQ(crashed_set(1), crashed_set(2));
}

TEST(FaultSession, MaxDegreeTargetCrashesTheHub) {
  // A stabilized star has one hub of degree n - 1; the adversarial
  // selector must kill exactly it -- the one victim a random k=1 crash
  // almost never picks, and the one Global-Star cannot repair (no rule
  // mints a new center once every survivor is peripheral). The population
  // still re-stabilizes (quiescent), just to a damaged topology.
  const ProtocolSpec spec = protocols::global_star();
  const int n = 14;
  Simulator sim(spec.protocol, n, 9);
  ASSERT_TRUE(sim.run_until_stable().stabilized);
  int hub = 0;
  for (int u = 0; u < n; ++u) {
    if (sim.world().active_degree(u) > sim.world().active_degree(hub)) hub = u;
  }
  ASSERT_EQ(sim.world().active_degree(hub), n - 1);

  FaultSession session(parse_fault_plan("crash:k=1:target=max-degree"), 9);
  ASSERT_TRUE(session.fire_on_stabilization(sim));
  EXPECT_FALSE(sim.world().alive(hub));
  EXPECT_EQ(sim.world().alive_count(), n - 1);
  const ConvergenceReport report = sim.run_until_stable();
  EXPECT_TRUE(report.stabilized);
  EXPECT_FALSE(is_spanning_star(sim.world().output_graph(spec.protocol)));
}

TEST(FaultSession, LeaderTargetCrashesALeaderStateNode) {
  // A stabilized Simple-Global-Line has exactly one node in the leader
  // state 'l'; target=leader must pick it over the q1/q2 followers.
  const ProtocolSpec spec = protocols::simple_global_line();
  const int n = 12;
  Simulator sim(spec.protocol, n, 33);
  Simulator::StabilityOptions options;
  options.max_steps = spec.max_steps(n);
  ASSERT_TRUE(sim.run_until_stable(options).stabilized);
  const StateId l = *spec.protocol.state_by_name("l");
  const std::vector<int> leaders =
      sim.world().nodes_where([l](StateId s) { return s == l; });
  ASSERT_EQ(leaders.size(), 1u);

  FaultSession session(parse_fault_plan("crash:k=1:target=leader"), 33);
  ASSERT_TRUE(session.fire_on_stabilization(sim));
  EXPECT_FALSE(sim.world().alive(leaders[0]));
}

TEST(FaultSession, LeaderTargetPadsWithRandomVictimsWhenLeadersRunOut) {
  // k = 3 against a single-leader line: the leader plus two random others.
  const ProtocolSpec spec = protocols::simple_global_line();
  const int n = 10;
  Simulator sim(spec.protocol, n, 21);
  Simulator::StabilityOptions options;
  options.max_steps = spec.max_steps(n);
  ASSERT_TRUE(sim.run_until_stable(options).stabilized);
  const StateId l = *spec.protocol.state_by_name("l");
  const std::vector<int> leaders =
      sim.world().nodes_where([l](StateId s) { return s == l; });
  ASSERT_EQ(leaders.size(), 1u);

  FaultSession session(parse_fault_plan("crash:k=3:target=leader"), 21);
  ASSERT_TRUE(session.fire_on_stabilization(sim));
  EXPECT_FALSE(sim.world().alive(leaders[0]));
  EXPECT_EQ(sim.world().alive_count(), n - 3);
}

TEST(FaultSession, TargetedSelectionIsDeterministicPerSeed) {
  // Same plan + seed -> same victims, on any engine (the selector draws
  // only from the session's own stream and the world configuration).
  const ProtocolSpec spec = protocols::global_star();
  std::vector<int> dead_a;
  std::vector<int> dead_b;
  for (int run = 0; run < 2; ++run) {
    Simulator sim(spec.protocol, 16, 5);
    ASSERT_TRUE(sim.run_until_stable().stabilized);
    FaultSession session(parse_fault_plan("crash:k=2:target=max-degree"), 5);
    ASSERT_TRUE(session.fire_on_stabilization(sim));
    for (int u = 0; u < 16; ++u) {
      if (!sim.world().alive(u)) (run == 0 ? dead_a : dead_b).push_back(u);
    }
  }
  EXPECT_EQ(dead_a, dead_b);
}

/// One state whose only rule restores a missing edge: started from the
/// complete graph, the configuration always has edges to delete.
Protocol edge_keeper() {
  ProtocolBuilder b("edge-keeper");
  const StateId q = b.add_state("q");
  b.set_initial(q);
  b.add_rule(q, q, false, q, q, true);
  return b.build();
}

/// Faults fired by an edge-rate window [at, at + window) with rate p on a
/// complete graph of n nodes, per trial, on the named engine.
std::vector<ConvergenceReport> rate_trials(const char* engine, double p, std::uint64_t at,
                                           std::uint64_t window, int n, int trials) {
  FaultEvent event;
  event.kind = FaultKind::EdgeRate;
  event.rate = p;
  event.at = at;
  event.window = window;
  FaultPlan plan;
  plan.events = {event};
  std::vector<ConvergenceReport> out;
  for (int trial = 0; trial < trials; ++trial) {
    const std::uint64_t seed = trial_seed(0x7a7e, static_cast<std::uint64_t>(trial));
    std::unique_ptr<Engine> sim;
    if (std::string(engine) == "census") {
      sim = std::make_unique<CensusEngine>(edge_keeper(), n, seed);
    } else {
      sim = std::make_unique<Simulator>(edge_keeper(), n, seed);
    }
    for (int v = 1; v < n; ++v) {
      for (int u = 0; u < v; ++u) sim->mutable_world().set_edge(u, v, true);
    }
    FaultSession session(plan, seed);
    out.push_back(run_until_stable_with_faults(*sim, session));
  }
  return out;
}

TEST(FaultSession, RateDeletionsFollowTheWindowLawOnBothEngines) {
  // Deletions at Geometric(p) gaps have the law of a per-step Bernoulli(p)
  // coin: over a window of W steps their count is Binomial(W, p). The
  // complete graph on 40 nodes has 780 edges, far more than a window
  // deletes, so every deletion finds an edge.
  constexpr double kP = 0.05;
  constexpr std::uint64_t kAt = 300;
  constexpr std::uint64_t kWindow = 1000;
  constexpr int kTrials = 200;
  for (const char* engine : {"naive", "census"}) {
    SCOPED_TRACE(engine);
    double sum = 0.0;
    for (const ConvergenceReport& report : rate_trials(engine, kP, kAt, kWindow, 40, kTrials)) {
      ASSERT_TRUE(report.stabilized);
      ASSERT_GT(report.faults_injected, 0u);
      EXPECT_GE(report.last_fault_step, kAt - 1);
      EXPECT_LE(report.last_fault_step, kAt + kWindow - 2);  // nothing after at + W - 1
      sum += static_cast<double>(report.faults_injected);
    }
    const double mean = sum / kTrials;
    const double sigma = std::sqrt(kWindow * kP * (1.0 - kP) / kTrials);
    EXPECT_NEAR(mean, kWindow * kP, 4.0 * sigma);
  }
}

TEST(FaultSession, RateOneDeletesOnEveryStepOfTheWindow) {
  // p = 1 (outside the grammar, whose p is < 1) makes every gap 0.
  for (const char* engine : {"naive", "census"}) {
    SCOPED_TRACE(engine);
    for (const ConvergenceReport& report : rate_trials(engine, 1.0, 40, 200, 32, 3)) {
      ASSERT_TRUE(report.stabilized);
      EXPECT_EQ(report.faults_injected, 200u);
      EXPECT_EQ(report.last_fault_step, 40u + 200u - 2u);
      EXPECT_EQ(report.output_edges_deleted, 200u);
    }
  }
}

TEST(OutputEdgeCount, CountsAliveOutputPairsOnly) {
  const ProtocolSpec spec = protocols::global_star();
  Simulator sim(spec.protocol, 10, 21);
  (void)sim.run_until_stable();
  const std::uint64_t before = output_edge_count(sim.protocol(), sim.world());
  EXPECT_EQ(before, 9u);  // spanning star over 10 nodes

  // Kill a leaf: its edge leaves the output graph.
  for (int u = 0; u < 10; ++u) {
    if (sim.world().active_degree(u) == 1) {
      sim.mutable_world().kill(u);
      break;
    }
  }
  EXPECT_EQ(output_edge_count(sim.protocol(), sim.world()), 8u);
}

}  // namespace
}  // namespace netcons::faults
