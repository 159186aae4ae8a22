// Section 4: all three spanning-line constructors stabilize to a spanning
// line for every population size and seed tried, and Simple-Global-Line's
// reachable configurations satisfy the paper's structural invariant
// (a collection of lines and isolated nodes, each line with one leader).
#include "protocols/protocols.hpp"

#include "campaign/campaign.hpp"
#include "graph/predicates.hpp"

#include <gtest/gtest.h>

#include <tuple>

namespace netcons {
namespace {

using protocols::fast_global_line;
using protocols::faster_global_line;
using protocols::simple_global_line;

ProtocolSpec line_spec(int which) {
  switch (which) {
    case 0: return simple_global_line();
    case 1: return fast_global_line();
    default: return faster_global_line();
  }
}

TEST(LineProtocols, StateCountsMatchPaper) {
  EXPECT_EQ(simple_global_line().protocol.state_count(), 5);
  EXPECT_EQ(fast_global_line().protocol.state_count(), 9);
  EXPECT_EQ(faster_global_line().protocol.state_count(), 6);
}

class LineConvergence : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(LineConvergence, StabilizesToSpanningLine) {
  const auto [which, n, seed] = GetParam();
  const ProtocolSpec spec = line_spec(which);
  const auto result = campaign::run_protocol_trial(spec, n,
      trial_seed(1000, static_cast<std::uint64_t>(seed)));
  EXPECT_TRUE(result.success) << result.error << spec.protocol.name() << " n=" << n;
  EXPECT_TRUE(result.target_ok) << spec.protocol.name() << " n=" << n;
  EXPECT_GT(result.value, 0u);
  EXPECT_GE(result.steps_executed, result.value);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LineConvergence,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(2, 3, 4, 5, 8, 13, 20),
                                            ::testing::Values(1, 2, 3)));

TEST(LineProtocols, SimpleGlobalLineInvariantHoldsMidway) {
  // Theorem 3's correctness invariant: every reachable configuration is a
  // collection of lines (each with exactly one leader, in state l or w) and
  // isolated q0 nodes.
  const ProtocolSpec spec = simple_global_line();
  const auto q0 = *spec.protocol.state_by_name("q0");
  const auto l = *spec.protocol.state_by_name("l");
  const auto w = *spec.protocol.state_by_name("w");

  Simulator sim(spec.protocol, 17, 77);
  for (int burst = 0; burst < 60; ++burst) {
    sim.run(250);
    const Graph g = sim.world().active_graph();
    for (const auto& comp : g.components()) {
      const Graph sub = g.induced(comp);
      if (comp.size() == 1) {
        const StateId s = sim.world().state(comp[0]);
        EXPECT_TRUE(s == q0 || s == l) << "isolated node in unexpected state";
        continue;
      }
      EXPECT_TRUE(is_spanning_line(sub)) << "component is not a line";
      int leaders = 0;
      for (int u : comp) {
        const StateId s = sim.world().state(u);
        if (s == l || s == w) ++leaders;
      }
      EXPECT_EQ(leaders, 1) << "line without a unique leader";
    }
  }
}

TEST(LineProtocols, FastGlobalLineSleepingLinesOnlyShrink) {
  // Protocol 2's key mechanism: once a line falls asleep (leader f1) it can
  // only lose nodes. We verify a weaker checkable consequence: f-states
  // never belong to a component that also holds an awake leader (l, l', l'').
  const ProtocolSpec spec = fast_global_line();
  const auto l = *spec.protocol.state_by_name("l");
  const auto lp = *spec.protocol.state_by_name("l'");
  const auto lpp = *spec.protocol.state_by_name("l''");
  const auto f1 = *spec.protocol.state_by_name("f1");

  Simulator sim(spec.protocol, 15, 99);
  for (int burst = 0; burst < 60; ++burst) {
    sim.run(200);
    const Graph g = sim.world().active_graph();
    for (const auto& comp : g.components()) {
      if (comp.size() == 1) continue;
      int awake = 0;
      int sleeping = 0;
      for (int u : comp) {
        const StateId s = sim.world().state(u);
        if (s == l || s == lp || s == lpp) ++awake;
        if (s == f1) ++sleeping;
      }
      EXPECT_LE(awake + sleeping, 2) << "component with too many leaders";
      // A component has at most one awake leader; transiently, an awake line
      // is attached to the sleeping line it steals from.
      EXPECT_LE(awake, 1);
    }
  }
}

TEST(LineProtocols, FastBeatsSimpleBeyondTheCrossover) {
  // O(n^3) vs Omega(n^4): Simple-Global-Line's small constants win at small
  // n; by n = 48 the asymptotics dominate (measured crossover ~n=40).
  const int n = 48;
  const int trials = 6;
  const auto simple =
      campaign::run({.units = {campaign::Unit::protocol("simple", simple_global_line())},
                     .ns = {n},
                     .trials = trials,
                     .base_seed = 42})
          .points.front();
  const auto fast = campaign::run({.units = {campaign::Unit::protocol("fast", fast_global_line())},
                                   .ns = {n},
                                   .trials = trials,
                                   .base_seed = 43})
                        .points.front();
  ASSERT_EQ(simple.failures, 0);
  ASSERT_EQ(fast.failures, 0);
  EXPECT_LT(fast.convergence_steps.mean(), simple.convergence_steps.mean());
}

TEST(LineProtocols, Protocol10OutpacesBothAtModerateN) {
  // Section 7's conjecture: the follower-dissolution variant is faster; the
  // measurements support it decisively at n = 32.
  const int n = 32;
  const auto fast = campaign::run({.units = {campaign::Unit::protocol("fast", fast_global_line())},
                                   .ns = {n},
                                   .trials = 6,
                                   .base_seed = 53})
                        .points.front();
  const auto faster =
      campaign::run({.units = {campaign::Unit::protocol("faster", faster_global_line())},
                     .ns = {n},
                     .trials = 6,
                     .base_seed = 54})
          .points.front();
  ASSERT_EQ(fast.failures, 0);
  ASSERT_EQ(faster.failures, 0);
  EXPECT_LT(faster.convergence_steps.mean(), fast.convergence_steps.mean());
}

}  // namespace
}  // namespace netcons
