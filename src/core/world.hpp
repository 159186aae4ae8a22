// A configuration of the system: node states, edge states, and the cached
// bookkeeping (active degrees, per-state census) that protocols' stability
// certificates and the simulator's output tracking rely on.
//
// Two web-scale concerns live here because only the World sees every
// mutation:
//
//  * Edge storage is dense (triangular bitset, the historical layout) up to
//    kDenseNodeLimit nodes and switches to per-node sorted adjacency above
//    it: the bitset is Theta(n^2) bits regardless of occupancy, which is
//    625 MB at n = 10^5 and 62 GB at n = 10^6, while the active edge count
//    m stays far below n^2 -- Cycle-Cover holds at most n, and
//    Global-Star's transient peaks at a slowly growing multiple of n
//    (7.2n, 8.9n and 11.6n measured at n = 2^10, 2^12, 2^14 under census
//    sampling). Every query keeps its contract; edge() costs a bit probe
//    dense and a binary search over a (typically tiny) adjacency list
//    sparse.
//  * version() counts successful mutations, so an observer that mirrors
//    the configuration (CensusEngine's census tables) can tell in O(1)
//    whether anyone touched the world since it last synced.
#pragma once

#include "core/protocol.hpp"
#include "graph/graph.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace netcons {

class World {
 public:
  /// Largest population the dense triangular bitset serves; above it edges
  /// live in per-node sorted adjacency (pair_count(2^15) is 64 MB of bits,
  /// the next doubling would be 256 MB).
  static constexpr int kDenseNodeLimit = 1 << 15;

  World() = default;
  /// All nodes in q0, all edges inactive -- the model's initial configuration.
  World(const Protocol& protocol, int n);

  [[nodiscard]] int size() const noexcept { return n_; }

  /// Index of the unordered pair {u, v} (u != v) in the dense triangular
  /// layout: v(v-1)/2 + u for u < v.
  [[nodiscard]] static std::size_t pair_index(int u, int v) noexcept {
    if (u > v) std::swap(u, v);
    return static_cast<std::size_t>(v) * (static_cast<std::size_t>(v) - 1) / 2 +
           static_cast<std::size_t>(u);
  }
  /// Number of unordered pairs over n nodes.
  [[nodiscard]] static std::size_t pair_count(int n) noexcept {
    return static_cast<std::size_t>(n) * (static_cast<std::size_t>(n) - 1) / 2;
  }

  /// Whether edges live in per-node adjacency lists (true) or the dense
  /// triangular bitset (false).
  [[nodiscard]] bool sparse_edges() const noexcept { return sparse_; }

  /// Mutation counter: set_state, set_edge and kill bump it on every
  /// successful mutation (no-ops leave it alone), so an observer that
  /// mirrors the configuration knows it is current iff the version it
  /// last synced to is still this one.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// Nodes still participating (size() minus crashed nodes).
  [[nodiscard]] int alive_count() const noexcept { return n_ - dead_count_; }
  [[nodiscard]] int dead_count() const noexcept { return dead_count_; }
  [[nodiscard]] bool alive(int u) const noexcept {
    return dead_count_ == 0 || !dead_[static_cast<std::size_t>(u)];
  }

  /// Crash fault: remove `u` from the population. All incident active edges
  /// are deleted, the node leaves the census, and it no longer participates
  /// in encounters, quiescence scans, or the output graph. Irreversible.
  /// Throws std::logic_error if `u` is already dead.
  void kill(int u);

  [[nodiscard]] StateId state(int u) const noexcept {
    return states_[static_cast<std::size_t>(u)];
  }
  void set_state(int u, StateId s);

  [[nodiscard]] bool edge(int u, int v) const noexcept {
    if (!sparse_) {
      const std::size_t i = pair_index(u, v);
      return (edge_bits_[i / 64] >> (i % 64)) & 1ULL;
    }
    return sparse_edge(u, v);
  }
  /// Returns true if the edge state changed.
  bool set_edge(int u, int v, bool active);

  /// Number of active edges incident to u.
  [[nodiscard]] int active_degree(int u) const noexcept {
    return degree_[static_cast<std::size_t>(u)];
  }

  /// Number of nodes currently in state s.
  [[nodiscard]] int census(StateId s) const noexcept {
    return census_[static_cast<std::size_t>(s)];
  }

  [[nodiscard]] std::int64_t active_edge_count() const noexcept { return active_edges_; }

  /// Invoke fn(u, v) for every active edge, u < v, in unspecified order.
  /// O(n^2 / 64 + m) dense (word-skipping scan), O(n + m) sparse -- the way
  /// to enumerate edges without n^2 edge() probes.
  template <typename Fn>
  void for_each_active_edge(Fn&& fn) const {
    if (sparse_) {
      for (int u = 0; u < n_; ++u) {
        const int d = degree_[static_cast<std::size_t>(u)];
        if (d <= kInlineNeighbors) {
          const std::size_t base = static_cast<std::size_t>(u) * kInlineNeighbors;
          for (int i = 0; i < d; ++i) {
            const std::int32_t v = adj_inline_[base + static_cast<std::size_t>(i)];
            if (u < v) fn(u, static_cast<int>(v));
          }
        } else {
          for (const std::int32_t v : adjacency_[static_cast<std::size_t>(u)]) {
            if (u < v) fn(u, static_cast<int>(v));
          }
        }
      }
      return;
    }
    for (std::size_t w = 0; w < edge_bits_.size(); ++w) {
      std::uint64_t word = edge_bits_[w];
      while (word != 0) {
        const int bit = std::countr_zero(word);
        word &= word - 1;
        const std::size_t index = w * 64 + static_cast<std::size_t>(bit);
        // Invert pair_index(u, v) = v(v-1)/2 + u (u < v).
        auto v = static_cast<std::size_t>(
            (1.0 + std::sqrt(1.0 + 8.0 * static_cast<double>(index))) / 2.0);
        while (v * (v - 1) / 2 > index) --v;
        while (v * (v + 1) / 2 <= index) ++v;
        const std::size_t u = index - v * (v - 1) / 2;
        fn(static_cast<int>(u), static_cast<int>(v));
      }
    }
  }

  /// The active graph over all nodes.
  [[nodiscard]] Graph active_graph() const;

  /// The paper's output graph G(C): active subgraph induced by nodes whose
  /// state is in Qout.
  [[nodiscard]] Graph output_graph(const Protocol& protocol) const;

  /// Alive nodes whose state satisfies `pred`.
  template <typename Pred>
  [[nodiscard]] std::vector<int> nodes_where(Pred pred) const {
    std::vector<int> out;
    for (int u = 0; u < n_; ++u) {
      if (alive(u) && pred(state(u))) out.push_back(u);
    }
    return out;
  }

  /// Active neighbors of u (O(n) scan dense, O(degree) sparse).
  [[nodiscard]] std::vector<int> active_neighbors(int u) const;

 private:
  /// Sparse neighbors live in a fixed inline block while the degree stays at
  /// or below this, so the common O(1)-degree protocols never touch the
  /// per-node heap vectors (one predictable cache line instead of a
  /// pointer chase per probe). Past it, ALL neighbors move to the sorted
  /// adjacency_ vector; dropping back migrates them home.
  static constexpr int kInlineNeighbors = 4;

  [[nodiscard]] bool sparse_edge(int u, int v) const noexcept;
  void sparse_add(int u, int v);
  void sparse_remove(int u, int v);

  int n_ = 0;
  int dead_count_ = 0;
  bool sparse_ = false;
  std::int64_t active_edges_ = 0;
  std::vector<StateId> states_;
  std::vector<std::uint64_t> edge_bits_;     ///< Dense mode only.
  std::vector<std::int32_t> adj_inline_;     ///< Sparse: kInlineNeighbors per node, unsorted.
  std::vector<std::vector<std::int32_t>> adjacency_;  ///< Sparse overflow (degree > inline); sorted.
  std::vector<int> degree_;
  std::vector<int> census_;
  std::vector<char> dead_;  ///< Allocated on first kill(); empty when all alive.
  std::uint64_t version_ = 0;
};

}  // namespace netcons
