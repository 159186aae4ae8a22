#include "protocols/protocols.hpp"

#include "campaign/campaign.hpp"
#include "graph/predicates.hpp"

#include <gtest/gtest.h>

namespace netcons {
namespace {

TEST(Krc, StateCountIs2KPlus2) {
  EXPECT_EQ(protocols::krc(2).protocol.state_count(), 6);
  EXPECT_EQ(protocols::krc(3).protocol.state_count(), 8);
  EXPECT_EQ(protocols::krc(5).protocol.state_count(), 12);
  EXPECT_THROW((void)protocols::krc(1), std::invalid_argument);
}

TEST(Krc, TwoRcIsKrc2) {
  EXPECT_EQ(protocols::two_rc().protocol.state_count(),
            protocols::krc(2).protocol.state_count());
  EXPECT_EQ(protocols::two_rc().protocol.effective_rule_count(),
            protocols::krc(2).protocol.effective_rule_count());
}

class TwoRcConvergence : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TwoRcConvergence, StabilizesToSpanningRing) {
  const auto [n, seed] = GetParam();
  const auto spec = protocols::two_rc();
  const auto result = campaign::run_protocol_trial(spec, n,
      trial_seed(8000, static_cast<std::uint64_t>(seed)));
  EXPECT_TRUE(result.success) << result.error << "n=" << n;
  ASSERT_TRUE(result.target_ok) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sweep, TwoRcConvergence,
                         ::testing::Combine(::testing::Values(3, 4, 5, 6, 8, 10),
                                            ::testing::Values(1, 2)));

TEST(TwoRc, FinalNetworkIsARing) {
  const auto spec = protocols::two_rc();
  Simulator sim(spec.protocol, 8, 1);
  Simulator::StabilityOptions options;
  options.max_steps = spec.max_steps(8);
  options.certificate = spec.certificate;
  const auto report = sim.run_until_stable(options);
  ASSERT_TRUE(report.stabilized);
  EXPECT_TRUE(report.certified);  // never quiescent: the leader swaps forever
  EXPECT_TRUE(is_spanning_ring(sim.world().output_graph(spec.protocol)));
}

class KrcConvergence : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(KrcConvergence, ReachesRelaxedKRegularConnected) {
  const auto [k, n, seed] = GetParam();
  if (n < k + 1) GTEST_SKIP();
  const auto spec = protocols::krc(k);
  const auto result = campaign::run_protocol_trial(spec, n,
      trial_seed(9000, static_cast<std::uint64_t>(seed)));
  EXPECT_TRUE(result.success) << result.error << "k=" << k << " n=" << n;
  EXPECT_TRUE(result.target_ok) << "k=" << k << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sweep, KrcConvergence,
                         ::testing::Combine(::testing::Values(3, 4),
                                            ::testing::Values(6, 8, 9, 12),
                                            ::testing::Values(1, 2)));

TEST(Krc, IndexTracksDegreeInvariant) {
  // The defining invariant: a node in q_i / l_i has active degree exactly i.
  const auto spec = protocols::krc(3);
  const Protocol& p = spec.protocol;
  Simulator sim(p, 12, 21);
  for (int burst = 0; burst < 80; ++burst) {
    sim.run(100);
    for (int u = 0; u < sim.world().size(); ++u) {
      const std::string& name = p.state_name(sim.world().state(u));
      const int index = std::stoi(name.substr(1));
      EXPECT_EQ(index, sim.world().active_degree(u))
          << "state " << name << " with degree " << sim.world().active_degree(u);
    }
  }
}

TEST(Krc, EveryComponentKeepsALeader) {
  // Correctness hinges on components never going leaderless.
  const auto spec = protocols::krc(2);
  const Protocol& p = spec.protocol;
  Simulator sim(p, 10, 31);
  for (int burst = 0; burst < 80; ++burst) {
    sim.run(100);
    const Graph g = sim.world().active_graph();
    for (const auto& comp : g.components()) {
      if (comp.size() == 1 && sim.world().state(comp[0]) == *p.state_by_name("q0")) {
        continue;  // isolated fresh nodes have no leader yet
      }
      int leaders = 0;
      for (int u : comp) {
        if (p.state_name(sim.world().state(u))[0] == 'l') ++leaders;
      }
      EXPECT_GE(leaders, 1) << "leaderless component of size " << comp.size();
    }
  }
}

}  // namespace
}  // namespace netcons
