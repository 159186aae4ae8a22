#include "core/world.hpp"

#include <algorithm>
#include <stdexcept>

namespace netcons {

World::World(const Protocol& protocol, int n)
    : n_(n), sparse_(n > kDenseNodeLimit), wide_keys_(sparse_ && !narrow_pair_keys(n)) {
  if (n < 1) throw std::invalid_argument("World: need at least one node");
  states_.assign(static_cast<std::size_t>(n), protocol.initial_state());
  if (!sparse_) edge_bits_.assign((pair_count(n) + 63) / 64, 0);
  degree_.assign(static_cast<std::size_t>(n), 0);
  census_.assign(static_cast<std::size_t>(protocol.state_count()), 0);
  census_[protocol.initial_state()] = n;
}

bool World::sparse_edge(int u, int v) const noexcept {
  const std::size_t i = pair_index(u, v);
  if (wide_keys_) return wide_edge_set_.contains(i);
  return edge_set_.contains(static_cast<std::uint32_t>(i));
}

bool World::sparse_set_edge(std::size_t index, bool active) {
  if (wide_keys_) return active ? wide_edge_set_.insert(index) : wide_edge_set_.erase(index);
  const auto key = static_cast<std::uint32_t>(index);
  return active ? edge_set_.insert(key) : edge_set_.erase(key);
}

template <typename Key>
bool World::PairSet<Key>::contains(Key key) const noexcept {
  if (size_ == 0) return false;
  for (std::size_t i = home(key);; i = (i + 1) & mask_) {
    if (slots_[i] == key) return true;
    if (slots_[i] == kEmpty) return false;
  }
}

template <typename Key>
bool World::PairSet<Key>::insert(Key key) {
  if (2 * (size_ + 1) > slots_.size()) {
    if (contains(key)) return false;
    std::vector<Key> old(std::max<std::size_t>(16, 2 * slots_.size()), kEmpty);
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    shift_ = 64 - std::countr_zero(slots_.size());
    size_ = 0;
    for (const Key k : old) {
      if (k != kEmpty) insert(k);
    }
  }
  std::size_t i = home(key);
  for (; slots_[i] != kEmpty; i = (i + 1) & mask_) {
    if (slots_[i] == key) return false;
  }
  slots_[i] = key;
  ++size_;
  return true;
}

template <typename Key>
bool World::PairSet<Key>::erase(Key key) {
  if (size_ == 0) return false;
  std::size_t hole = home(key);
  for (; slots_[hole] != key; hole = (hole + 1) & mask_) {
    if (slots_[hole] == kEmpty) return false;
  }
  // Backward shift: pull each later member of the probe run into the hole
  // unless its home lies cyclically in (hole, j], where it must stay.
  for (std::size_t j = (hole + 1) & mask_; slots_[j] != kEmpty; j = (j + 1) & mask_) {
    if (((j - home(slots_[j])) & mask_) >= ((j - hole) & mask_)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = kEmpty;
  --size_;
  return true;
}

template <typename Key>
std::vector<Key> World::PairSet<Key>::sorted_keys() const {
  std::vector<Key> keys;
  keys.reserve(size_);
  for (const Key k : slots_) {
    if (k != kEmpty) keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

template class World::PairSet<std::uint32_t>;
template class World::PairSet<std::uint64_t>;

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
  // active_neighbors returns a copy, so set_edge may mutate the storage.
  for (const int v : active_neighbors(u)) set_edge(u, v, false);
  ++version_;
  --census_[static_cast<std::size_t>(states_[static_cast<std::size_t>(u)])];
  if (dead_.empty()) dead_.assign(static_cast<std::size_t>(n_), 0);
  dead_[static_cast<std::size_t>(u)] = 1;
  ++dead_count_;
}

bool World::set_edge(int u, int v, bool active) {
  const std::size_t i = pair_index(u, v);
  if (!sparse_) {
    const std::uint64_t mask = 1ULL << (i % 64);
    const bool old = (edge_bits_[i / 64] & mask) != 0;
    if (old == active) return false;
    edge_bits_[i / 64] ^= mask;
  } else if (!sparse_set_edge(i, active)) {
    return false;
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
  const auto want = static_cast<std::size_t>(active_degree(u));
  out.reserve(want);
  for (int v = 0; v < n_ && out.size() < want; ++v) {
    if (v != u && edge(u, v)) out.push_back(v);
  }
  return out;
}

}  // namespace netcons
