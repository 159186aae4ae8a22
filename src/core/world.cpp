#include "core/world.hpp"

#include <algorithm>
#include <stdexcept>

namespace netcons {

World::World(const Protocol& protocol, int n) : n_(n), sparse_(n > kDenseNodeLimit) {
  if (n < 1) throw std::invalid_argument("World: need at least one node");
  states_.assign(static_cast<std::size_t>(n), protocol.initial_state());
  if (sparse_) {
    adj_inline_.assign(static_cast<std::size_t>(n) * kInlineNeighbors, 0);
    adjacency_.assign(static_cast<std::size_t>(n), {});
  } else {
    edge_bits_.assign((pair_count(n) + 63) / 64, 0);
  }
  degree_.assign(static_cast<std::size_t>(n), 0);
  census_.assign(static_cast<std::size_t>(protocol.state_count()), 0);
  census_[protocol.initial_state()] = n;
}

bool World::sparse_edge(int u, int v) const noexcept {
  // Probe the lower-degree endpoint.
  if (degree_[static_cast<std::size_t>(v)] < degree_[static_cast<std::size_t>(u)]) std::swap(u, v);
  const int d = degree_[static_cast<std::size_t>(u)];
  if (d <= kInlineNeighbors) {
    const std::size_t base = static_cast<std::size_t>(u) * kInlineNeighbors;
    for (int i = 0; i < d; ++i) {
      if (adj_inline_[base + static_cast<std::size_t>(i)] == static_cast<std::int32_t>(v)) {
        return true;
      }
    }
    return false;
  }
  const auto& adj = adjacency_[static_cast<std::size_t>(u)];
  return std::binary_search(adj.begin(), adj.end(), static_cast<std::int32_t>(v));
}

void World::sparse_add(int u, int v) {
  // Callers update degree_ afterwards, so degree_[u] is the pre-add count.
  const int d = degree_[static_cast<std::size_t>(u)];
  const std::size_t base = static_cast<std::size_t>(u) * kInlineNeighbors;
  if (d < kInlineNeighbors) {
    adj_inline_[base + static_cast<std::size_t>(d)] = static_cast<std::int32_t>(v);
    return;
  }
  auto& adj = adjacency_[static_cast<std::size_t>(u)];
  if (d == kInlineNeighbors) {  // Spill: everyone moves to the sorted vector.
    adj.assign(adj_inline_.begin() + static_cast<std::ptrdiff_t>(base),
               adj_inline_.begin() + static_cast<std::ptrdiff_t>(base + kInlineNeighbors));
    adj.push_back(static_cast<std::int32_t>(v));
    std::sort(adj.begin(), adj.end());
    return;
  }
  adj.insert(std::lower_bound(adj.begin(), adj.end(), static_cast<std::int32_t>(v)),
             static_cast<std::int32_t>(v));
}

void World::sparse_remove(int u, int v) {
  // Callers update degree_ afterwards, so degree_[u] is the pre-remove count.
  const int d = degree_[static_cast<std::size_t>(u)];
  const std::size_t base = static_cast<std::size_t>(u) * kInlineNeighbors;
  if (d <= kInlineNeighbors) {
    for (int i = 0; i < d; ++i) {
      if (adj_inline_[base + static_cast<std::size_t>(i)] == static_cast<std::int32_t>(v)) {
        adj_inline_[base + static_cast<std::size_t>(i)] =
            adj_inline_[base + static_cast<std::size_t>(d - 1)];
        return;
      }
    }
    return;  // unreachable for a recorded edge
  }
  auto& adj = adjacency_[static_cast<std::size_t>(u)];
  adj.erase(std::lower_bound(adj.begin(), adj.end(), static_cast<std::int32_t>(v)));
  if (d - 1 == kInlineNeighbors) {  // Migrate home; clear() keeps the capacity.
    std::copy(adj.begin(), adj.end(), adj_inline_.begin() + static_cast<std::ptrdiff_t>(base));
    adj.clear();
  }
}

void World::set_state(int u, StateId s) {
  if (!alive(u)) throw std::logic_error("World::set_state: node is crashed");
  StateId& cur = states_[static_cast<std::size_t>(u)];
  if (cur == s) return;
  ++version_;
  --census_[static_cast<std::size_t>(cur)];
  ++census_[static_cast<std::size_t>(s)];
  cur = s;
}

void World::kill(int u) {
  if (!alive(u)) throw std::logic_error("World::kill: node already crashed");
  if (sparse_) {
    // set_edge mutates the adjacency storage; iterate over a copy.
    const std::vector<int> neighbors = active_neighbors(u);
    for (const int v : neighbors) set_edge(u, v, false);
  } else {
    for (int v = 0; v < n_; ++v) {
      if (v != u && edge(u, v)) set_edge(u, v, false);
    }
  }
  ++version_;
  --census_[static_cast<std::size_t>(states_[static_cast<std::size_t>(u)])];
  if (dead_.empty()) dead_.assign(static_cast<std::size_t>(n_), 0);
  dead_[static_cast<std::size_t>(u)] = 1;
  ++dead_count_;
}

bool World::set_edge(int u, int v, bool active) {
  if (!sparse_) {
    const std::size_t i = pair_index(u, v);
    const std::uint64_t mask = 1ULL << (i % 64);
    const bool old = (edge_bits_[i / 64] & mask) != 0;
    if (old == active) return false;
    edge_bits_[i / 64] ^= mask;
  } else {
    const bool old = sparse_edge(u, v);
    if (old == active) return false;
    if (active) {
      sparse_add(u, v);
      sparse_add(v, u);
    } else {
      sparse_remove(u, v);
      sparse_remove(v, u);
    }
  }
  ++version_;
  const int delta = active ? 1 : -1;
  degree_[static_cast<std::size_t>(u)] += delta;
  degree_[static_cast<std::size_t>(v)] += delta;
  active_edges_ += delta;
  return true;
}

Graph World::active_graph() const {
  Graph g(n_);
  for_each_active_edge([&](int u, int v) { g.add_edge(u, v); });
  return g;
}

Graph World::output_graph(const Protocol& protocol) const {
  // Output nodes keep their world ids; non-output nodes are present but
  // isolated is NOT the paper's definition -- the output graph contains only
  // Qout nodes. We relabel them 0..k-1 preserving order.
  std::vector<std::int32_t> relabel(static_cast<std::size_t>(n_), -1);
  int out_count = 0;
  for (int u = 0; u < n_; ++u) {
    // Crashed nodes are gone from the population, hence from G(C).
    if (alive(u) && protocol.is_output_state(state(u))) relabel[static_cast<std::size_t>(u)] = out_count++;
  }
  Graph g(out_count);
  for_each_active_edge([&](int u, int v) {
    const std::int32_t a = relabel[static_cast<std::size_t>(u)];
    const std::int32_t b = relabel[static_cast<std::size_t>(v)];
    if (a >= 0 && b >= 0) g.add_edge(static_cast<int>(a), static_cast<int>(b));
  });
  return g;
}

std::vector<int> World::active_neighbors(int u) const {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(active_degree(u)));
  if (sparse_) {
    const int d = degree_[static_cast<std::size_t>(u)];
    if (d <= kInlineNeighbors) {
      const std::size_t base = static_cast<std::size_t>(u) * kInlineNeighbors;
      out.assign(adj_inline_.begin() + static_cast<std::ptrdiff_t>(base),
                 adj_inline_.begin() + static_cast<std::ptrdiff_t>(base + d));
      return out;
    }
    const auto& adj = adjacency_[static_cast<std::size_t>(u)];
    out.assign(adj.begin(), adj.end());
    return out;
  }
  for (int v = 0; v < n_; ++v) {
    if (v != u && edge(u, v)) out.push_back(v);
  }
  return out;
}

}  // namespace netcons
