#include "protocols/protocols.hpp"

#include "campaign/campaign.hpp"
#include "graph/predicates.hpp"

#include <gtest/gtest.h>

namespace netcons {
namespace {

TEST(CCliques, StateCountIs5CMinus3) {
  EXPECT_EQ(protocols::c_cliques(3).protocol.state_count(), 12);
  EXPECT_EQ(protocols::c_cliques(4).protocol.state_count(), 17);
  EXPECT_EQ(protocols::c_cliques(5).protocol.state_count(), 22);
  EXPECT_THROW((void)protocols::c_cliques(2), std::invalid_argument);
}

class CliqueConvergence : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(CliqueConvergence, PartitionsIntoCliques) {
  const auto [c, n, seed] = GetParam();
  const auto spec = protocols::c_cliques(c);
  const auto result =
      campaign::run_protocol_trial(spec, n, trial_seed(11000, static_cast<std::uint64_t>(seed)));
  EXPECT_TRUE(result.success) << result.error << "c=" << c << " n=" << n;
  EXPECT_TRUE(result.target_ok) << "c=" << c << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CliqueConvergence,
                         ::testing::Combine(::testing::Values(3, 4),
                                            ::testing::Values(6, 7, 9, 12),
                                            ::testing::Values(1, 2)));

TEST(CCliques, ExactPartitionWhenDivisible) {
  const auto spec = protocols::c_cliques(3);
  Simulator sim(spec.protocol, 9, 3);
  Simulator::StabilityOptions options;
  options.max_steps = spec.max_steps(9);
  options.certificate = spec.certificate;
  const auto report = sim.run_until_stable(options);
  ASSERT_TRUE(report.stabilized);
  const Graph g = sim.world().output_graph(spec.protocol);
  int triangles = 0;
  for (const auto& comp : g.components()) {
    if (comp.size() == 3) ++triangles;
  }
  EXPECT_EQ(triangles, 3);
}

TEST(CCliques, LeftoverComponentIsUnique) {
  const auto spec = protocols::c_cliques(3);
  for (int seed = 0; seed < 4; ++seed) {
    Simulator sim(spec.protocol, 10, trial_seed(12000, static_cast<std::uint64_t>(seed)));
    Simulator::StabilityOptions options;
    options.max_steps = spec.max_steps(10);
    options.certificate = spec.certificate;
    const auto report = sim.run_until_stable(options);
    ASSERT_TRUE(report.stabilized);
    const Graph g = sim.world().output_graph(spec.protocol);
    int small = 0;
    for (const auto& comp : g.components()) {
      if (static_cast<int>(comp.size()) < 3) ++small;
    }
    EXPECT_LE(small, 1);
  }
}

TEST(CCliques, CounterEqualsFollowerConnectionsInvariant) {
  // Counter semantics: a follower in counter state i (or visited state l'_i)
  // has exactly i - 1 active connections to other counter-followers -- the
  // bookkeeping that lets wrong cross-component edges be found and undone.
  const int c = 3;
  const auto spec = protocols::c_cliques(c);
  const Protocol& p = spec.protocol;
  Simulator sim(p, 12, 5);
  auto counter_index = [&](StateId s) -> int {
    const std::string& name = p.state_name(s);
    if (name.size() >= 2 && name[0] == 'c' && std::isdigit(name[1])) {
      return std::stoi(name.substr(1));
    }
    if (name.size() >= 3 && name.rfind("lv", 0) == 0) return std::stoi(name.substr(2));
    return -1;
  };
  for (int burst = 0; burst < 60; ++burst) {
    sim.run(200);
    for (int u = 0; u < sim.world().size(); ++u) {
      const int index = counter_index(sim.world().state(u));
      if (index < 0) continue;
      int follower_neighbors = 0;
      for (int v : sim.world().active_neighbors(u)) {
        if (counter_index(sim.world().state(v)) >= 0) ++follower_neighbors;
      }
      EXPECT_EQ(follower_neighbors, index - 1)
          << "state " << p.state_name(sim.world().state(u));
    }
  }
}

}  // namespace
}  // namespace netcons
