#include "graph/predicates.hpp"

#include <gtest/gtest.h>

namespace netcons {
namespace {

TEST(Predicates, Connectivity) {
  EXPECT_TRUE(is_connected(Graph::line(5)));
  EXPECT_TRUE(is_connected(Graph(1)));
  Graph g(4);
  g.add_edge(0, 1);
  EXPECT_FALSE(is_connected(g));
}

TEST(Predicates, SpanningLine) {
  for (int n : {2, 3, 5, 10}) {
    EXPECT_TRUE(is_spanning_line(Graph::line(n))) << n;
  }
  EXPECT_FALSE(is_spanning_line(Graph::ring(5)));
  EXPECT_FALSE(is_spanning_line(Graph::star(5)));
  // Two disjoint lines with the right degree counts are not spanning.
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  EXPECT_FALSE(is_spanning_line(g));
  // Line plus a chord is not a line.
  Graph h = Graph::line(5);
  h.add_edge(0, 4);
  EXPECT_FALSE(is_spanning_line(h));
}

TEST(Predicates, SpanningRing) {
  for (int n : {3, 4, 7}) {
    EXPECT_TRUE(is_spanning_ring(Graph::ring(n))) << n;
  }
  EXPECT_FALSE(is_spanning_ring(Graph::line(5)));
  // Two disjoint triangles: 2-regular but disconnected.
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(5, 3);
  EXPECT_FALSE(is_spanning_ring(g));
}

TEST(Predicates, SpanningStar) {
  for (int n : {2, 3, 6, 12}) {
    EXPECT_TRUE(is_spanning_star(Graph::star(n))) << n;
  }
  EXPECT_FALSE(is_spanning_star(Graph::line(4)));
  // Star with one extra peripheral edge fails.
  Graph g = Graph::star(5);
  g.add_edge(1, 2);
  EXPECT_FALSE(is_spanning_star(g));
}

TEST(Predicates, CycleCover) {
  // Two disjoint cycles cover everything.
  Graph g(7);
  for (auto [u, v] : {std::pair{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 6}, {6, 3}}) {
    g.add_edge(u, v);
  }
  EXPECT_TRUE(is_cycle_cover(g, 0));
  // One isolated node within waste.
  Graph h(4);
  h.add_edge(0, 1);
  h.add_edge(1, 2);
  h.add_edge(2, 0);
  EXPECT_TRUE(is_cycle_cover(h, 2));
  EXPECT_FALSE(is_cycle_cover(h, 0));
  // A matched pair counts 2 waste.
  Graph m(5);
  m.add_edge(0, 1);
  m.add_edge(1, 2);
  m.add_edge(2, 0);
  m.add_edge(3, 4);
  EXPECT_TRUE(is_cycle_cover(m, 2));
  EXPECT_FALSE(is_cycle_cover(m, 1));
  // A line component disqualifies regardless of waste.
  Graph bad(5);
  bad.add_edge(0, 1);
  bad.add_edge(1, 2);
  EXPECT_FALSE(is_cycle_cover(bad, 5));
}

TEST(Predicates, KRegularRelaxed) {
  EXPECT_TRUE(is_k_regular_connected_relaxed(Graph::ring(6), 2));
  EXPECT_TRUE(is_k_regular_connected(Graph::ring(6), 2));
  EXPECT_TRUE(is_k_regular_connected(Graph::clique(5), 4));
  EXPECT_FALSE(is_k_regular_connected_relaxed(Graph::line(6), 2));  // two deg-1 nodes
  // K4 minus an edge: two nodes of degree 2, two of degree 3 -- the
  // relaxed form for k = 3 allows l = 2 deficient nodes with degree >= 1.
  Graph g = Graph::clique(4);
  g.remove_edge(0, 1);
  EXPECT_TRUE(is_k_regular_connected_relaxed(g, 3));
  EXPECT_FALSE(is_k_regular_connected(g, 3));
}

TEST(Predicates, CliquePartition) {
  // Two triangles on 6 nodes.
  Graph g(6);
  for (auto [u, v] : {std::pair{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}}) {
    g.add_edge(u, v);
  }
  EXPECT_TRUE(is_clique_partition(g, 3));
  // 7 nodes: two triangles and one leftover.
  Graph h(7);
  for (auto [u, v] : {std::pair{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}}) {
    h.add_edge(u, v);
  }
  EXPECT_TRUE(is_clique_partition(h, 3));
  // A component of 3 that is a path, not a clique.
  Graph p(3);
  p.add_edge(0, 1);
  p.add_edge(1, 2);
  EXPECT_FALSE(is_clique_partition(p, 3));
  // Only one triangle on 6 nodes: not floor(6/3) = 2 cliques.
  Graph q(6);
  q.add_edge(0, 1);
  q.add_edge(1, 2);
  q.add_edge(2, 0);
  EXPECT_FALSE(is_clique_partition(q, 3));
}

TEST(Predicates, MaximumMatching) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.add_edge(4, 5);
  EXPECT_TRUE(is_maximum_matching(g));
  Graph odd(5);
  odd.add_edge(0, 1);
  odd.add_edge(2, 3);
  EXPECT_TRUE(is_maximum_matching(odd));
  odd.add_edge(3, 4);  // degree 2 violation
  EXPECT_FALSE(is_maximum_matching(odd));
}

TEST(Predicates, SpanningNetworkAndMaxDegree) {
  EXPECT_TRUE(is_spanning_network(Graph::line(4)));
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_FALSE(is_spanning_network(g));  // node 2 uncovered
  EXPECT_TRUE(has_max_degree(Graph::ring(5), 2));
  EXPECT_FALSE(has_max_degree(Graph::star(5), 2));
}

// Target checks walk adjacency in O(n + m): at n = 2^20 these finish in well
// under a second, where an O(n^2) pair scan would blow the ctest timeout.
TEST(Predicates, TargetChecksScaleToMillionNodes) {
  constexpr int kN = 1 << 20;
  const Graph ring = Graph::ring(kN);
  EXPECT_TRUE(is_connected(ring));
  EXPECT_TRUE(is_spanning_ring(ring));
  EXPECT_TRUE(is_cycle_cover(ring, 0));
  EXPECT_FALSE(is_spanning_line(ring));

  const Graph line = Graph::line(kN);
  EXPECT_TRUE(is_connected(line));
  EXPECT_TRUE(is_spanning_line(line));
  EXPECT_FALSE(is_spanning_ring(line));
  EXPECT_FALSE(is_cycle_cover(line, 2));

  // Triangles over the first 3 * (kN / 3) nodes, then one waste pair.
  constexpr int kTriangles = kN / 3;
  Graph cover(3 * kTriangles + 2);
  for (int t = 0; t < kTriangles; ++t) {
    cover.add_edge(3 * t, 3 * t + 1);
    cover.add_edge(3 * t + 1, 3 * t + 2);
    cover.add_edge(3 * t + 2, 3 * t);
  }
  cover.add_edge(3 * kTriangles, 3 * kTriangles + 1);
  EXPECT_TRUE(is_cycle_cover(cover, 2));
  EXPECT_FALSE(is_cycle_cover(cover, 1));
  EXPECT_FALSE(is_connected(cover));
}

}  // namespace
}  // namespace netcons
