#include "core/world.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace netcons {
namespace {

Protocol two_state() {
  ProtocolBuilder b("two");
  const StateId a = b.add_state("a");
  const StateId c = b.add_state("c");
  b.set_initial(a);
  b.add_rule(a, a, false, c, c, true);
  return b.build();
}

TEST(World, PairIndexIsTriangularAndSymmetric) {
  EXPECT_EQ(World::pair_index(0, 1), 0u);
  EXPECT_EQ(World::pair_index(1, 0), 0u);
  EXPECT_EQ(World::pair_index(0, 2), 1u);
  EXPECT_EQ(World::pair_index(1, 2), 2u);
  EXPECT_EQ(World::pair_index(0, 3), 3u);
  // Bijective over all pairs of a small n.
  const int n = 12;
  std::vector<bool> seen(World::pair_count(n), false);
  for (int v = 1; v < n; ++v) {
    for (int u = 0; u < v; ++u) {
      const auto i = World::pair_index(u, v);
      ASSERT_LT(i, seen.size());
      EXPECT_FALSE(seen[i]);
      seen[i] = true;
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(World, InitialConfiguration) {
  const Protocol p = two_state();
  World w(p, 5);
  EXPECT_EQ(w.size(), 5);
  EXPECT_EQ(w.census(0), 5);
  EXPECT_EQ(w.census(1), 0);
  EXPECT_EQ(w.active_edge_count(), 0);
  for (int u = 0; u < 5; ++u) {
    EXPECT_EQ(w.state(u), p.initial_state());
    EXPECT_EQ(w.active_degree(u), 0);
  }
}

TEST(World, CensusTracksStateChanges) {
  World w(two_state(), 4);
  w.set_state(0, 1);
  w.set_state(1, 1);
  EXPECT_EQ(w.census(0), 2);
  EXPECT_EQ(w.census(1), 2);
  w.set_state(0, 0);
  EXPECT_EQ(w.census(0), 3);
  // Setting the same state is a no-op.
  w.set_state(0, 0);
  EXPECT_EQ(w.census(0), 3);
}

TEST(World, EdgeAndDegreeBookkeeping) {
  World w(two_state(), 4);
  EXPECT_TRUE(w.set_edge(0, 2, true));
  EXPECT_FALSE(w.set_edge(0, 2, true));
  EXPECT_TRUE(w.edge(2, 0));
  EXPECT_EQ(w.active_degree(0), 1);
  EXPECT_EQ(w.active_degree(2), 1);
  EXPECT_EQ(w.active_edge_count(), 1);
  EXPECT_EQ(w.active_neighbors(0), std::vector<int>{2});
  EXPECT_TRUE(w.set_edge(0, 2, false));
  EXPECT_EQ(w.active_edge_count(), 0);
}

TEST(World, ActiveGraphExtraction) {
  World w(two_state(), 4);
  w.set_edge(0, 1, true);
  w.set_edge(2, 3, true);
  const Graph g = w.active_graph();
  EXPECT_EQ(g.edge_count(), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 3));
}

TEST(World, OutputGraphFiltersNonOutputStates) {
  ProtocolBuilder b("filtered");
  const StateId a = b.add_state("a");
  const StateId c = b.add_state("c");
  b.set_initial(a);
  b.set_output_states({c});
  b.add_rule(a, a, false, c, c, true);
  const Protocol p = b.build();

  World w(p, 4);
  w.set_edge(0, 1, true);
  w.set_edge(1, 2, true);
  w.set_state(0, c);
  w.set_state(1, c);
  const Graph out = w.output_graph(p);
  // Only nodes 0 and 1 are in Qout; the 0-1 edge survives, 1-2 does not.
  EXPECT_EQ(out.order(), 2);
  EXPECT_EQ(out.edge_count(), 1);
}

TEST(World, NodesWhere) {
  World w(two_state(), 5);
  w.set_state(2, 1);
  w.set_state(4, 1);
  const auto picked = w.nodes_where([](StateId s) { return s == 1; });
  EXPECT_EQ(picked, (std::vector<int>{2, 4}));
}

TEST(World, RejectsEmptyPopulation) {
  const Protocol p = two_state();
  EXPECT_THROW(World(p, 0), std::invalid_argument);
}

TEST(World, KillRemovesNodeEdgesCensusAndOutput) {
  const Protocol p = two_state();
  World w(p, 4);
  w.set_edge(0, 1, true);
  w.set_edge(0, 2, true);
  w.set_edge(2, 3, true);
  ASSERT_EQ(w.alive_count(), 4);

  w.kill(0);
  EXPECT_EQ(w.alive_count(), 3);
  EXPECT_EQ(w.dead_count(), 1);
  EXPECT_FALSE(w.alive(0));
  EXPECT_TRUE(w.alive(1));
  // All incident edges deleted; the unrelated edge survives.
  EXPECT_FALSE(w.edge(0, 1));
  EXPECT_FALSE(w.edge(0, 2));
  EXPECT_TRUE(w.edge(2, 3));
  EXPECT_EQ(w.active_degree(0), 0);
  EXPECT_EQ(w.active_degree(1), 0);
  EXPECT_EQ(w.active_edge_count(), 1);
  // The crashed node leaves the census and the output graph.
  EXPECT_EQ(w.census(0), 3);
  EXPECT_EQ(w.output_graph(p).order(), 3);
  // And nodes_where no longer reports it.
  const auto initial = w.nodes_where([&](StateId s) { return s == p.initial_state(); });
  EXPECT_EQ(initial, (std::vector<int>{1, 2, 3}));
}

TEST(World, KillTwiceOrMutateDeadNodeThrows) {
  World w(two_state(), 3);
  w.kill(1);
  EXPECT_THROW(w.kill(1), std::logic_error);
  EXPECT_THROW(w.set_state(1, 1), std::logic_error);
}

TEST(World, VersionCountsSuccessfulMutationsOnly) {
  World w(two_state(), 4);
  EXPECT_EQ(w.version(), 0u);
  w.set_state(0, 0);  // already in state 0
  EXPECT_FALSE(w.set_edge(0, 1, false));
  EXPECT_EQ(w.version(), 0u);
  w.set_state(0, 1);
  EXPECT_EQ(w.version(), 1u);
  EXPECT_TRUE(w.set_edge(0, 1, true));
  EXPECT_FALSE(w.set_edge(1, 0, true));
  EXPECT_EQ(w.version(), 2u);
  // kill = one edge deletion per incident edge, then the crash itself.
  w.kill(1);
  EXPECT_EQ(w.version(), 4u);
}

}  // namespace
}  // namespace netcons
