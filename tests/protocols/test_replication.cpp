#include "protocols/protocols.hpp"

#include "campaign/campaign.hpp"
#include "graph/isomorphism.hpp"
#include "graph/random_graphs.hpp"

#include <gtest/gtest.h>

namespace netcons {
namespace {

TEST(Replication, TwelveStatesRandomized) {
  const auto spec = protocols::replication(Graph::line(3));
  EXPECT_EQ(spec.protocol.state_count(), 12);
  EXPECT_TRUE(spec.protocol.randomized());
}

TEST(Replication, RejectsDisconnectedInput) {
  Graph g(4);
  g.add_edge(0, 1);
  EXPECT_THROW((void)protocols::replication(g), std::invalid_argument);
}

TEST(Replication, RejectsTooSmallPopulation) {
  const auto spec = protocols::replication(Graph::line(4));
  Simulator sim(spec.protocol, 6, 1);  // needs >= 8
  EXPECT_THROW(spec.initialize(sim.mutable_world()), std::invalid_argument);
}

class ReplicationShapes : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ReplicationShapes, CopiesNamedShapes) {
  const auto [shape, seed] = GetParam();
  Graph input;
  switch (shape) {
    case 0: input = Graph::line(4); break;
    case 1: input = Graph::ring(4); break;
    case 2: input = Graph::star(4); break;
    default: input = Graph::clique(3); break;
  }
  const auto spec = protocols::replication(input);
  const int n = 2 * input.order() + 1;  // one spare V2 node
  const auto result =
      campaign::run_protocol_trial(spec, n, trial_seed(13000, static_cast<std::uint64_t>(seed)));
  EXPECT_TRUE(result.success) << result.error;
  EXPECT_TRUE(result.target_ok);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ReplicationShapes,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(1, 2)));

TEST(Replication, CopiesRandomConnectedGraphs) {
  Rng rng(404);
  for (int trial = 0; trial < 3; ++trial) {
    const Graph input = sample_bounded_degree_connected(5, 3, rng);
    const auto spec = protocols::replication(input);
    const auto result = campaign::run_protocol_trial(spec, 10, trial_seed(14000, rng.split()));
    ASSERT_TRUE(result.success) << result.error << "trial " << trial;
    EXPECT_TRUE(result.target_ok) << "trial " << trial;
  }
}

TEST(Replication, ExactCopyViaTheMatching) {
  // Beyond isomorphism: the matched partner of each V1 node carries exactly
  // its row of the adjacency matrix.
  const Graph input = Graph::ring(4);
  const auto spec = protocols::replication(input);
  Simulator sim(spec.protocol, 8, 55);
  spec.initialize(sim.mutable_world());
  Simulator::StabilityOptions options;
  options.max_steps = spec.max_steps(8);
  options.certificate = spec.certificate;
  const auto report = sim.run_until_stable(options);
  ASSERT_TRUE(report.stabilized);
  ASSERT_TRUE(report.certified);

  const World& w = sim.world();
  const StateId r = *spec.protocol.state_by_name("r");
  std::vector<int> match(4, -1);
  for (int u = 0; u < 4; ++u) {
    for (int v = 4; v < 8; ++v) {
      if (w.state(v) == r && w.edge(u, v)) match[static_cast<std::size_t>(u)] = v;
    }
    ASSERT_NE(match[static_cast<std::size_t>(u)], -1);
  }
  for (int u = 0; u < 4; ++u) {
    for (int v = u + 1; v < 4; ++v) {
      EXPECT_EQ(w.edge(u, v), w.edge(match[static_cast<std::size_t>(u)],
                                     match[static_cast<std::size_t>(v)]));
    }
  }
}

TEST(Replication, SparesStayUntouched) {
  const Graph input = Graph::line(3);
  const auto spec = protocols::replication(input);
  Simulator sim(spec.protocol, 9, 77);  // 3 spare V2 nodes
  spec.initialize(sim.mutable_world());
  Simulator::StabilityOptions options;
  options.max_steps = spec.max_steps(9);
  options.certificate = spec.certificate;
  const auto report = sim.run_until_stable(options);
  ASSERT_TRUE(report.stabilized);
  const StateId r0 = *spec.protocol.state_by_name("r0");
  EXPECT_EQ(sim.world().census(r0), 3);
  for (int v = 0; v < 9; ++v) {
    if (sim.world().state(v) == r0) {
      EXPECT_EQ(sim.world().active_degree(v), 0);
    }
  }
}

}  // namespace
}  // namespace netcons
