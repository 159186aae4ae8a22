// A configuration of the system: node states, edge states, and the cached
// bookkeeping (active degrees, per-state census) that protocols' stability
// certificates and the simulator's output tracking rely on.
//
// Two web-scale hooks live here because only the World sees every mutation:
//
//  * Edge storage is dense (triangular bitset, the historical layout) up to
//    kDenseNodeLimit nodes and switches to per-node sorted adjacency above
//    it: the bitset is Theta(n^2) bits regardless of occupancy, which is
//    625 MB at n = 10^5 and 62 GB at n = 10^6, while the paper's protocols
//    keep O(n) edges alive. Every query keeps its contract; edge() costs a
//    bit probe dense and a binary search over a (typically tiny) adjacency
//    list sparse.
//  * An optional WorldMutationLog records every successful mutation so an
//    observer that mirrors the configuration (CensusEngine's census tables)
//    can apply exact O(1)-per-entry deltas instead of rebuilding from
//    scratch whenever someone touched the world behind its back.
#pragma once

#include "core/protocol.hpp"
#include "graph/graph.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace netcons {

/// Append-only journal of world mutations, in application order. Attached
/// by an observer via World::set_mutation_log; the World records every
/// *successful* mutation (no-ops are not logged) until `capacity` entries,
/// after which it stops recording and raises `overflowed` -- the observer
/// then falls back to a full resync. `suspended` lets the observer mute
/// logging across mutations it performs (and mirrors) itself.
struct WorldMutationLog {
  enum class Kind : std::uint8_t {
    kSetState,  ///< u changed state; prev is the state before.
    kEdgeOn,    ///< edge {u, v} became active.
    kEdgeOff,   ///< edge {u, v} became inactive.
    kKill       ///< u crashed (its incident kEdgeOff entries precede this).
  };
  struct Entry {
    Kind kind = Kind::kSetState;
    std::int32_t u = 0;
    std::int32_t v = 0;
    StateId prev = 0;  ///< kSetState / kKill: the state before.
    StateId next = 0;  ///< kSetState: the state after.
  };

  std::vector<Entry> entries;
  std::size_t capacity = 4096;
  bool overflowed = false;
  bool suspended = false;

  void record(Kind kind, int u, int v, StateId prev, StateId next = 0) {
    if (overflowed) return;
    if (entries.size() >= capacity) {
      overflowed = true;
      return;
    }
    entries.push_back(
        {kind, static_cast<std::int32_t>(u), static_cast<std::int32_t>(v), prev, next});
  }
  void clear() noexcept {
    entries.clear();
    overflowed = false;
  }
  [[nodiscard]] bool clean() const noexcept { return entries.empty() && !overflowed; }
};

class World {
 public:
  /// Edge-storage strategy; kAuto picks dense up to kDenseNodeLimit nodes.
  enum class EdgeStorage { kAuto, kDense, kSparse };

  /// Largest population the dense triangular bitset is allowed to serve
  /// under kAuto (pair_count(2^15) is 64 MB of bits; the next doubling
  /// would be 256 MB for what the paper's protocols use as O(n) edges).
  static constexpr int kDenseNodeLimit = 1 << 15;

  World() = default;
  /// All nodes in q0, all edges inactive -- the model's initial configuration.
  World(const Protocol& protocol, int n, EdgeStorage storage = EdgeStorage::kAuto);

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

  /// Attach (or detach, with nullptr) a mutation journal. Not owned.
  void set_mutation_log(WorldMutationLog* log) noexcept { log_ = log; }
  [[nodiscard]] WorldMutationLog* mutation_log() const noexcept { return log_; }

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
  WorldMutationLog* log_ = nullptr;
};

}  // namespace netcons
