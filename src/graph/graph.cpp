#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace netcons {

Graph::Graph(int n) : n_(n) {
  if (n < 0) throw std::invalid_argument("Graph: negative order");
  adj_.resize(static_cast<std::size_t>(n));
}

bool Graph::has_edge(int u, int v) const noexcept {
  if (u == v) return false;
  if (degree(v) < degree(u)) std::swap(u, v);
  const std::vector<int>& row = adj_[static_cast<std::size_t>(u)];
  return std::binary_search(row.begin(), row.end(), v);
}

bool Graph::set_edge(int u, int v, bool active) {
  if (u == v || u < 0 || v < 0 || u >= n_ || v >= n_) {
    throw std::out_of_range("Graph::set_edge: bad endpoints");
  }
  std::vector<int>& row_u = adj_[static_cast<std::size_t>(u)];
  std::vector<int>& row_v = adj_[static_cast<std::size_t>(v)];
  const auto at_u = std::lower_bound(row_u.begin(), row_u.end(), v);
  const bool old = at_u != row_u.end() && *at_u == v;
  if (old == active) return false;
  const auto at_v = std::lower_bound(row_v.begin(), row_v.end(), u);
  if (active) {
    row_u.insert(at_u, v);
    row_v.insert(at_v, u);
  } else {
    row_u.erase(at_u);
    row_v.erase(at_v);
  }
  edges_ += active ? 1 : -1;
  return true;
}

std::vector<std::pair<int, int>> Graph::edges() const {
  std::vector<std::pair<int, int>> out;
  out.reserve(static_cast<std::size_t>(edges_));
  for (int v = 1; v < n_; ++v) {
    for (const int u : adj_[static_cast<std::size_t>(v)]) {
      if (u > v) break;
      out.emplace_back(u, v);
    }
  }
  return out;
}

std::vector<std::vector<int>> Graph::components() const {
  std::vector<int> label(static_cast<std::size_t>(n_), -1);
  std::vector<std::vector<int>> comps;
  std::vector<int> stack;
  for (int s = 0; s < n_; ++s) {
    if (label[static_cast<std::size_t>(s)] != -1) continue;
    const int id = static_cast<int>(comps.size());
    comps.emplace_back();
    stack.push_back(s);
    label[static_cast<std::size_t>(s)] = id;
    while (!stack.empty()) {
      const int u = stack.back();
      stack.pop_back();
      comps[static_cast<std::size_t>(id)].push_back(u);
      for (const int v : adj_[static_cast<std::size_t>(u)]) {
        if (label[static_cast<std::size_t>(v)] == -1) {
          label[static_cast<std::size_t>(v)] = id;
          stack.push_back(v);
        }
      }
    }
  }
  return comps;
}

Graph Graph::induced(const std::vector<int>& nodes) const {
  // (original id, new id), sorted for lookup: O((k + m_k) log k), never O(n).
  std::vector<std::pair<int, int>> relabel;
  relabel.reserve(nodes.size());
  for (std::size_t a = 0; a < nodes.size(); ++a) {
    relabel.emplace_back(nodes[a], static_cast<int>(a));
  }
  std::sort(relabel.begin(), relabel.end());
  Graph g(static_cast<int>(nodes.size()));
  for (std::size_t a = 0; a < nodes.size(); ++a) {
    for (const int w : adj_[static_cast<std::size_t>(nodes[a])]) {
      for (auto it = std::lower_bound(relabel.begin(), relabel.end(), std::pair{w, 0});
           it != relabel.end() && it->first == w; ++it) {
        if (it->second > static_cast<int>(a)) g.add_edge(static_cast<int>(a), it->second);
      }
    }
  }
  return g;
}

std::string Graph::adjacency_bits() const {
  std::string s(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_), '0');
  for (int u = 0; u < n_; ++u) {
    for (const int v : adj_[static_cast<std::size_t>(u)]) {
      s[static_cast<std::size_t>(u) * static_cast<std::size_t>(n_) + static_cast<std::size_t>(v)] =
          '1';
    }
  }
  return s;
}

std::optional<Graph> Graph::from_adjacency_bits(const std::string& bits) {
  int n = 0;
  while (static_cast<std::size_t>(n) * static_cast<std::size_t>(n) < bits.size()) ++n;
  if (static_cast<std::size_t>(n) * static_cast<std::size_t>(n) != bits.size()) {
    return std::nullopt;
  }
  Graph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      const char c = bits[static_cast<std::size_t>(u) * static_cast<std::size_t>(n) +
                          static_cast<std::size_t>(v)];
      if (c != '0' && c != '1') return std::nullopt;
      const char mirror = bits[static_cast<std::size_t>(v) * static_cast<std::size_t>(n) +
                               static_cast<std::size_t>(u)];
      if (c != mirror) return std::nullopt;
      if (u == v && c == '1') return std::nullopt;
      if (u < v && c == '1') g.add_edge(u, v);
    }
  }
  return g;
}

Graph Graph::line(int n) {
  Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g;
}

Graph Graph::ring(int n) {
  Graph g = line(n);
  if (n >= 3) g.add_edge(n - 1, 0);
  return g;
}

Graph Graph::star(int n) {
  Graph g(n);
  for (int i = 1; i < n; ++i) g.add_edge(0, i);
  return g;
}

Graph Graph::clique(int n) {
  Graph g(n);
  for (int v = 1; v < n; ++v) {
    for (int u = 0; u < v; ++u) g.add_edge(u, v);
  }
  return g;
}

}  // namespace netcons
