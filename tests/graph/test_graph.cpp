#include "graph/graph.hpp"

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace netcons {
namespace {

TEST(Graph, EdgeSetAndDegreeBookkeeping) {
  Graph g(5);
  EXPECT_EQ(g.edge_count(), 0);
  EXPECT_TRUE(g.set_edge(1, 3, true));
  EXPECT_FALSE(g.set_edge(1, 3, true));  // no change
  EXPECT_TRUE(g.has_edge(3, 1));
  EXPECT_EQ(g.degree(1), 1);
  EXPECT_EQ(g.degree(3), 1);
  EXPECT_EQ(g.edge_count(), 1);
  EXPECT_TRUE(g.set_edge(1, 3, false));
  EXPECT_EQ(g.edge_count(), 0);
  EXPECT_EQ(g.degree(1), 0);
}

TEST(Graph, SelfLoopAndRangeChecks) {
  Graph g(3);
  EXPECT_FALSE(g.has_edge(1, 1));
  EXPECT_THROW(g.set_edge(1, 1, true), std::out_of_range);
  EXPECT_THROW(g.set_edge(0, 5, true), std::out_of_range);
}

TEST(Graph, NeighborsAndEdges) {
  Graph g = Graph::star(5);
  EXPECT_EQ(g.neighbors(0), (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(g.neighbors(2), (std::vector<int>{0}));
  EXPECT_EQ(g.edges().size(), 4u);
}

TEST(Graph, ComponentsOfDisjointShapes) {
  Graph g(7);
  g.add_edge(0, 1);
  g.add_edge(1, 2);  // line 0-1-2
  g.add_edge(3, 4);  // edge 3-4
  const auto comps = g.components();
  ASSERT_EQ(comps.size(), 4u);  // line, edge, and isolated 5, 6
  std::vector<std::size_t> sizes;
  for (const auto& c : comps) sizes.push_back(c.size());
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 1, 2, 3}));
}

TEST(Graph, InducedSubgraphRelabels) {
  Graph g = Graph::ring(6);
  const Graph sub = g.induced({0, 1, 2});
  EXPECT_EQ(sub.order(), 3);
  EXPECT_TRUE(sub.has_edge(0, 1));
  EXPECT_TRUE(sub.has_edge(1, 2));
  EXPECT_FALSE(sub.has_edge(0, 2));  // ring edge 5-0 is not inside
}

TEST(Graph, AdjacencyBitsRoundTrip) {
  Graph g = Graph::line(5);
  const std::string bits = g.adjacency_bits();
  EXPECT_EQ(bits.size(), 25u);
  const auto back = Graph::from_adjacency_bits(bits);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, g);
}

TEST(Graph, FromAdjacencyBitsRejectsBadInput) {
  EXPECT_FALSE(Graph::from_adjacency_bits("010").has_value());  // not square
  // 2x2 "0110" => a(0,1) = a(1,0) = 1, zero diagonal: valid.
  EXPECT_TRUE(Graph::from_adjacency_bits("0110").has_value());
  EXPECT_FALSE(Graph::from_adjacency_bits("0100").has_value());  // asymmetric
  EXPECT_FALSE(Graph::from_adjacency_bits("1001").has_value());  // self loop
  EXPECT_FALSE(Graph::from_adjacency_bits("01x0").has_value());  // bad char
}

TEST(Graph, NamedConstructions) {
  EXPECT_EQ(Graph::line(4).edge_count(), 3);
  EXPECT_EQ(Graph::ring(4).edge_count(), 4);
  EXPECT_EQ(Graph::star(4).edge_count(), 3);
  EXPECT_EQ(Graph::clique(4).edge_count(), 6);
  EXPECT_EQ(Graph::ring(2).edge_count(), 1);  // degenerate ring is one edge
}

/// Brute-force reference: a full pair matrix walked with all-pairs loops.
/// Pins the iteration orders callers depend on.
struct PairMatrix {
  int n;
  std::vector<std::vector<char>> on;

  explicit PairMatrix(int order)
      : n(order),
        on(static_cast<std::size_t>(order),
           std::vector<char>(static_cast<std::size_t>(order), 0)) {}

  [[nodiscard]] bool has(int u, int v) const {
    return on[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)] != 0;
  }
  void set(int u, int v, bool active) {
    on[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)] = active ? 1 : 0;
    on[static_cast<std::size_t>(v)][static_cast<std::size_t>(u)] = active ? 1 : 0;
  }
  [[nodiscard]] std::vector<int> neighbors(int u) const {
    std::vector<int> out;
    for (int v = 0; v < n; ++v) {
      if (has(u, v)) out.push_back(v);
    }
    return out;
  }
  [[nodiscard]] std::vector<std::pair<int, int>> edges() const {
    std::vector<std::pair<int, int>> out;
    for (int v = 1; v < n; ++v) {
      for (int u = 0; u < v; ++u) {
        if (has(u, v)) out.emplace_back(u, v);
      }
    }
    return out;
  }
  [[nodiscard]] std::vector<std::vector<int>> components() const {
    std::vector<int> label(static_cast<std::size_t>(n), -1);
    std::vector<std::vector<int>> comps;
    for (int s = 0; s < n; ++s) {
      if (label[static_cast<std::size_t>(s)] != -1) continue;
      const int id = static_cast<int>(comps.size());
      comps.emplace_back();
      std::vector<int> stack{s};
      label[static_cast<std::size_t>(s)] = id;
      while (!stack.empty()) {
        const int u = stack.back();
        stack.pop_back();
        comps.back().push_back(u);
        for (int v = 0; v < n; ++v) {
          if (label[static_cast<std::size_t>(v)] == -1 && has(u, v)) {
            label[static_cast<std::size_t>(v)] = id;
            stack.push_back(v);
          }
        }
      }
    }
    return comps;
  }
  [[nodiscard]] std::string bits() const {
    std::string s;
    for (int u = 0; u < n; ++u) {
      for (int v = 0; v < n; ++v) s += has(u, v) ? '1' : '0';
    }
    return s;
  }
};

TEST(Graph, MatchesPairMatrixReferenceOnRandomGraphs) {
  Rng rng(0x6a09e667f3bcc908ULL);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + static_cast<int>(rng.below(24));
    Graph g(n);
    PairMatrix ref(n);
    // Random toggles: inserts and erases in arbitrary order.
    const int toggles = n < 2 ? 0 : static_cast<int>(rng.below(static_cast<std::uint64_t>(3 * n)));
    for (int t = 0; t < toggles; ++t) {
      const int u = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
      const int v = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
      if (u == v) continue;
      const bool active = rng.below(4) != 0;
      EXPECT_EQ(g.set_edge(u, v, active), ref.has(u, v) != active);
      ref.set(u, v, active);
    }
    ASSERT_EQ(g.edge_count(), static_cast<std::int64_t>(ref.edges().size()));
    for (int u = 0; u < n; ++u) {
      EXPECT_EQ(g.neighbors(u), ref.neighbors(u));
      EXPECT_EQ(g.degree(u), static_cast<int>(ref.neighbors(u).size()));
      for (int v = 0; v < n; ++v) EXPECT_EQ(g.has_edge(u, v), ref.has(u, v));
    }
    EXPECT_EQ(g.edges(), ref.edges());
    EXPECT_EQ(g.components(), ref.components());

    // Equality is structural: the same edge set built in reverse order.
    const auto edges = ref.edges();
    Graph rebuilt(n);
    for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
      rebuilt.add_edge(it->second, it->first);
    }
    EXPECT_EQ(rebuilt, g);

    const std::string bits = g.adjacency_bits();
    EXPECT_EQ(bits, ref.bits());
    const auto back = Graph::from_adjacency_bits(bits);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, g);

    // Induced on a random node sequence (any order, possibly a subset).
    std::vector<int> nodes;
    for (int u = 0; u < n; ++u) {
      if (rng.below(3) != 0) nodes.push_back(u);
    }
    for (std::size_t i = nodes.size(); i > 1; --i) std::swap(nodes[i - 1], nodes[rng.below(i)]);
    const Graph sub = g.induced(nodes);
    ASSERT_EQ(sub.order(), static_cast<int>(nodes.size()));
    for (std::size_t a = 0; a < nodes.size(); ++a) {
      for (std::size_t b = 0; b < nodes.size(); ++b) {
        EXPECT_EQ(sub.has_edge(static_cast<int>(a), static_cast<int>(b)),
                  a != b && ref.has(nodes[a], nodes[b]));
      }
    }
  }
}

TEST(Graph, EqualityIsStructural) {
  Graph a = Graph::line(4);
  Graph b = Graph::line(4);
  EXPECT_EQ(a, b);
  b.add_edge(0, 3);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace netcons
