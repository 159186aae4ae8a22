// Simple undirected graph on nodes {0..n-1}, stored as one sorted adjacency
// row per node. This is the "output graph" type extracted from
// configurations and the input type of every topology predicate, so every
// walk over it -- neighbors, edges(), components() -- is O(n + m) in time
// and memory: the paper's protocols keep m far below n^2 (Cycle-Cover at
// most n, Global-Star a transient ~7-12 n at n = 2^10 .. 2^14), and a
// target check at n = 10^6 must not pay for the n^2/2 pairs that are off.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace netcons {

class Graph {
 public:
  Graph() = default;
  explicit Graph(int n);

  [[nodiscard]] int order() const noexcept { return n_; }
  [[nodiscard]] std::int64_t edge_count() const noexcept { return edges_; }

  /// Binary search on the lower-degree endpoint's row.
  [[nodiscard]] bool has_edge(int u, int v) const noexcept;
  /// Sets the edge state; returns true if the state changed.
  bool set_edge(int u, int v, bool active);
  void add_edge(int u, int v) { set_edge(u, v, true); }
  void remove_edge(int u, int v) { set_edge(u, v, false); }

  [[nodiscard]] int degree(int u) const noexcept {
    return static_cast<int>(adj_[static_cast<std::size_t>(u)].size());
  }

  /// Neighbors of u, ascending (a copy of u's row, so callers may mutate
  /// the graph while walking it).
  [[nodiscard]] std::vector<int> neighbors(int u) const {
    return adj_[static_cast<std::size_t>(u)];
  }

  /// All active edges as (u, v) pairs with u < v, ordered by v then u.
  [[nodiscard]] std::vector<std::pair<int, int>> edges() const;

  /// Connected components as node lists (singletons included): components
  /// in order of their smallest node, nodes in depth-first stack order.
  [[nodiscard]] std::vector<std::vector<int>> components() const;

  [[nodiscard]] bool operator==(const Graph& other) const noexcept = default;

  /// Subgraph induced by `nodes`, relabeled 0..k-1 in the given order.
  [[nodiscard]] Graph induced(const std::vector<int>& nodes) const;

  /// Row-major adjacency-matrix bit string ("0101..."), the TM input
  /// encoding used throughout Section 6.
  [[nodiscard]] std::string adjacency_bits() const;
  [[nodiscard]] static std::optional<Graph> from_adjacency_bits(const std::string& bits);

  /// Named constructions used as test fixtures and replication inputs.
  [[nodiscard]] static Graph line(int n);
  [[nodiscard]] static Graph ring(int n);
  [[nodiscard]] static Graph star(int n);
  [[nodiscard]] static Graph clique(int n);

 private:
  int n_ = 0;
  std::int64_t edges_ = 0;
  std::vector<std::vector<int>> adj_;  ///< Sorted neighbor rows, one per node.
};

}  // namespace netcons
