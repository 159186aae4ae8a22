// A configuration of the system: node states, edge states, and the cached
// bookkeeping (active degrees, per-state census) that protocols' stability
// certificates and the simulator's output tracking rely on.
//
// Two web-scale concerns live here because only the World sees every
// mutation:
//
//  * Edge storage follows n alone. Up to kDenseNodeLimit nodes it is the
//    triangular bitset (at most 4.2 MB, cache-resident, so the naive
//    engine's per-step probe and Simulator::is_quiescent's n^2 probes stay
//    bit tests). Above it the bitset's Theta(n^2) bits would dwarf the
//    active edge count m -- Cycle-Cover holds at most n edges, and
//    Global-Star's transient peaks at a slowly growing multiple of n
//    (7.2n, 8.9n and 11.6n measured at n = 2^10, 2^12, 2^14 under census
//    sampling) -- so edges live in one open-addressing set of pair_index
//    keys sized to m. The set's key width also follows n: 32-bit keys
//    while every pair index fits below the empty-slot marker
//    (pair_count(n) <= 2^32 - 1, i.e. n <= 92,682), which halves the
//    table's footprint against 64-bit keys, and 64-bit keys above, the
//    only width that can hold those indices. Every query keeps its
//    contract on all three storages, and for_each_active_edge visits
//    edges in pair_index order on each.
//  * version() counts successful mutations, so an observer that mirrors
//    the configuration (CensusEngine's census tables) can tell in O(1)
//    whether anyone touched the world since it last synced.
#pragma once

#include "core/protocol.hpp"
#include "graph/graph.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace netcons {

class World {
 public:
  /// Largest population whose edges live in the dense triangular bitset
  /// (pair_count(2^13) bits is 4.2 MB); above it they live in an
  /// open-addressing set of pair_index keys.
  static constexpr int kDenseNodeLimit = 1 << 13;

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
  [[nodiscard]] static constexpr std::size_t pair_count(int n) noexcept {
    return static_cast<std::size_t>(n) * (static_cast<std::size_t>(n) - 1) / 2;
  }
  /// Whether every pair index over n nodes fits a 32-bit pair-set key
  /// with ~0u left free as the empty-slot marker (n <= 92,682).
  [[nodiscard]] static constexpr bool narrow_pair_keys(int n) noexcept {
    return pair_count(n) <= std::numeric_limits<std::uint32_t>::max();
  }

  /// Whether edges live in the pair set (true) or the dense triangular
  /// bitset (false).
  [[nodiscard]] bool sparse_edges() const noexcept { return sparse_; }
  /// Bits per pair-set key: 32 or 64 on sparse storage (narrow_pair_keys),
  /// 0 on the bitset.
  [[nodiscard]] int pair_key_bits() const noexcept {
    if (!sparse_) return 0;
    return wide_keys_ ? 64 : 32;
  }

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
    // Out of line with its own pair_index: sharing one index computation
    // with the bitset branch made GCC swap the endpoints with a jump
    // instead of a cmov, which random pairs mispredict half the time
    // (measured ~40% slower naive n = 64 campaigns).
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

  /// Invoke fn(u, v) for every active edge, u < v, in pair_index order
  /// (v-major, then u) on both storages. O(n^2 / 64 + m) dense
  /// (word-skipping scan), O(m log m) sparse (the set's keys, sorted) --
  /// the way to enumerate edges without n^2 edge() probes.
  template <typename Fn>
  void for_each_active_edge(Fn&& fn) const {
    if (sparse_) {
      const auto visit = [&fn](const auto& keys) {
        for (const auto key : keys) {
          const auto [u, v] = pair_at(key);
          fn(u, v);
        }
      };
      if (wide_keys_) {
        visit(wide_edge_set_.sorted_keys());
      } else {
        visit(edge_set_.sorted_keys());
      }
      return;
    }
    for (std::size_t w = 0; w < edge_bits_.size(); ++w) {
      std::uint64_t word = edge_bits_[w];
      while (word != 0) {
        const int bit = std::countr_zero(word);
        word &= word - 1;
        const auto [u, v] = pair_at(w * 64 + static_cast<std::size_t>(bit));
        fn(u, v);
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

  /// Active neighbors of u in ascending order: edge() probes over the other
  /// nodes, stopping once active_degree(u) are found.
  [[nodiscard]] std::vector<int> active_neighbors(int u) const;

 private:
  [[nodiscard]] bool sparse_edge(int u, int v) const noexcept;
  /// set_edge on the pair set; true if it changed.
  bool sparse_set_edge(std::size_t index, bool active);
  /// Inverse of pair_index: the pair (u, v), u < v, at `index`.
  [[nodiscard]] static std::pair<int, int> pair_at(std::size_t index) noexcept {
    auto v = static_cast<std::size_t>(
        (1.0 + std::sqrt(1.0 + 8.0 * static_cast<double>(index))) / 2.0);
    while (v * (v - 1) / 2 > index) --v;
    while (v * (v + 1) / 2 <= index) ++v;
    return {static_cast<int>(index - v * (v - 1) / 2), static_cast<int>(v)};
  }

  /// Set of pair_index keys of type Key (std::uint32_t or std::uint64_t;
  /// the all-ones key marks an empty slot): power-of-two capacity with a
  /// multiplicative (Fibonacci) hash, linear probing at load <= 1/2
  /// (doubling when an insert would pass it), and backward-shift deletion,
  /// so no tombstones build up under edge churn.
  template <typename Key>
  class PairSet {
   public:
    [[nodiscard]] bool contains(Key key) const noexcept;
    /// Insert / erase report whether the set changed.
    bool insert(Key key);
    bool erase(Key key);
    [[nodiscard]] std::vector<Key> sorted_keys() const;

   private:
    static constexpr Key kEmpty = std::numeric_limits<Key>::max();
    [[nodiscard]] std::size_t home(Key key) const noexcept {
      return static_cast<std::size_t>((std::uint64_t{key} * 0x9E3779B97F4A7C15ULL) >> shift_);
    }
    std::vector<Key> slots_;
    std::size_t mask_ = 0;
    int shift_ = 0;
    std::size_t size_ = 0;
  };

  int n_ = 0;
  int dead_count_ = 0;
  bool sparse_ = false;
  bool wide_keys_ = false;  ///< Sparse mode with !narrow_pair_keys(n).
  std::int64_t active_edges_ = 0;
  std::vector<StateId> states_;
  std::vector<std::uint64_t> edge_bits_;  ///< Dense mode only.
  PairSet<std::uint32_t> edge_set_;       ///< Sparse mode, narrow keys.
  PairSet<std::uint64_t> wide_edge_set_;  ///< Sparse mode, wide keys.
  std::vector<int> degree_;
  std::vector<int> census_;
  std::vector<char> dead_;  ///< Allocated on first kill(); empty when all alive.
  std::uint64_t version_ = 0;
};

}  // namespace netcons
