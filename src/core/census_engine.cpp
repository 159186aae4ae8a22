#include "core/census_engine.hpp"

#include "telemetry/metrics.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

namespace netcons {

namespace {

/// The lowest set bit of i: the span of Fenwick node i.
constexpr std::size_t lowbit(std::size_t i) noexcept { return i & (~i + 1); }

}  // namespace

std::vector<EffectiveClass> effective_state_classes(const Protocol& protocol) {
  std::vector<EffectiveClass> out;
  const int q = protocol.state_count();
  for (int a = 0; a < q; ++a) {
    for (int b = a; b < q; ++b) {
      for (const bool c : {false, true}) {
        if (!protocol.ineffective(static_cast<StateId>(a), static_cast<StateId>(b), c)) {
          out.push_back({static_cast<StateId>(a), static_cast<StateId>(b), c});
        }
      }
    }
  }
  return out;
}

std::vector<StateId> terminal_states(const Protocol& protocol) {
  const int q = protocol.state_count();
  std::vector<char> leaves(static_cast<std::size_t>(q), 0);
  for (int a = 0; a < q; ++a) {
    for (int b = 0; b < q; ++b) {
      for (const bool c : {false, true}) {
        const RuleEntry& rule = protocol.entry(static_cast<StateId>(a), static_cast<StateId>(b), c);
        if (!rule.defined || !rule.effective) continue;
        // Same-state encounters need no extra case for the symmetry-breaking
        // swap: with a == b, either outcome state that differs marks a.
        for (const Outcome& out : {rule.primary, rule.coin ? rule.secondary : rule.primary}) {
          if (out.a != a) leaves[static_cast<std::size_t>(a)] = 1;
          if (out.b != b) leaves[static_cast<std::size_t>(b)] = 1;
        }
      }
    }
  }
  std::vector<StateId> out;
  for (int s = 0; s < q; ++s) {
    if (leaves[static_cast<std::size_t>(s)] == 0) out.push_back(static_cast<StateId>(s));
  }
  return out;
}

CensusEngine::CensusEngine(Protocol protocol, int n, std::uint64_t seed,
                           std::unique_ptr<Scheduler> scheduler)
    : Simulator(std::move(protocol), n, seed, std::move(scheduler)) {
  // The uniform random scheduler (whether installed by default or passed
  // explicitly) is the degenerate weight model: every pair weighs the same.
  // A non-uniform scheduler that can state its law as static per-pair
  // weights exports its own model; one without (an exact script) has no
  // census law and is refused. Querying the model here consumes exactly
  // the engine-RNG draws the scheduler's first next() would (e.g. the
  // spatial placement), so the naive and census engines see the same
  // embedding for a given trial seed.
  if (dynamic_cast<const UniformRandomScheduler*>(Simulator::scheduler()) != nullptr) {
    weight_model_ = &uniform_model_.emplace(n);
  } else {
    weight_model_ = Simulator::mutable_scheduler()->weight_model(rng(), n);
    if (weight_model_ == nullptr) {
      throw std::invalid_argument(
          "census engine: the scheduler exports no weight model; run it on the naive engine");
    }
  }
  // Model weights are static for the trial, so the listed regime's bound
  // is too: exactly 1 for uniform-law models, which therefore never list.
  list_cap_ = weight_model_->max_weight() / weight_model_->min_weight();
  terminal_.assign(static_cast<std::size_t>(Simulator::protocol().state_count()), 0);
  for (const StateId t : terminal_states(Simulator::protocol())) terminal_[t] = 1;
}

std::uint32_t CensusEngine::bucket_key(StateId a, StateId b) const noexcept {
  // a <= b by normalization; one slot per unordered state pair.
  return static_cast<std::uint32_t>(a) *
             static_cast<std::uint32_t>(protocol().state_count()) +
         static_cast<std::uint32_t>(b);
}

std::uint64_t CensusEngine::class_multiplicity(const EffectiveClass& cls) const noexcept {
  const std::uint64_t active = buckets_[bucket_key(cls.a, cls.b)].size();
  if (cls.c) return active;
  const std::uint64_t cnt_a = nodes_by_state_[cls.a].size();
  std::uint64_t pairs = 0;
  if (cls.a == cls.b) {
    pairs = cnt_a < 2 ? 0 : cnt_a * (cnt_a - 1) / 2;
  } else {
    pairs = cnt_a * nodes_by_state_[cls.b].size();
  }
  return pairs - active;
}

void CensusEngine::rebuild_tables() {
  ++stats_.full_rebuilds;
  const World& w = world();
  const int q = protocol().state_count();
  const int n = w.size();

  classes_ = effective_state_classes(protocol());
  const std::size_t c = classes_.size();
  classes_by_state_.assign(static_cast<std::size_t>(q), {});
  for (std::uint32_t i = 0; i < c; ++i) {
    classes_by_state_[classes_[i].a].push_back(i);
    if (classes_[i].b != classes_[i].a) classes_by_state_[classes_[i].b].push_back(i);
  }
  // Weights, the running total and the Fenwick tree are set by the
  // refresh_weights() that ends the rebuild.
  weight_.assign(c, 0);

  nodes_by_state_.assign(static_cast<std::size_t>(q), {});
  node_pos_.assign(static_cast<std::size_t>(n), -1);
  buckets_.assign(static_cast<std::size_t>(q) * static_cast<std::size_t>(q), {});
  adj_inline_.assign(static_cast<std::size_t>(n) * kInlineAdj, 0);
  adj_len_.assign(static_cast<std::size_t>(n), 0);
  adj_over_.assign(static_cast<std::size_t>(n), {});
  edges_.clear();
  free_slots_.clear();

  for (int u = 0; u < n; ++u) {
    if (!w.alive(u)) continue;  // crashed nodes leave the sampling support
    auto& list = nodes_by_state_[w.state(u)];
    node_pos_[static_cast<std::size_t>(u)] = static_cast<std::int32_t>(list.size());
    list.push_back(u);
  }
  // The kill() invariant guarantees dead nodes are edge-free, so every
  // active edge has two alive endpoints.
  w.for_each_active_edge([this](int u, int v) { insert_edge(u, v); });
  refresh_weights();
  synced_version_ = w.version();
}

void CensusEngine::sync_tables() {
  if (synced_version_ != world().version()) rebuild_tables();
}

void CensusEngine::insert_edge(int u, int v) {
  if (u > v) std::swap(u, v);
  std::uint32_t slot = 0;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(edges_.size());
    edges_.emplace_back();
  }
  EdgeSlot& e = edges_[slot];
  e.u = u;
  e.v = v;
  const StateId su = world().state(u);
  const StateId sv = world().state(v);
  const std::uint32_t key = bucket_key(std::min(su, sv), std::max(su, sv));
  e.bucket = key;
  auto& bucket = buckets_[key];
  e.bucket_pos = static_cast<std::uint32_t>(bucket.size());
  bucket.push_back(slot);
  e.pos_u = terminal_[su] ? kNoPos : adj_push(u, slot);
  e.pos_v = terminal_[sv] ? kNoPos : adj_push(v, slot);
}

void CensusEngine::erase_edge(std::uint32_t slot) {
  const EdgeSlot e = edges_[slot];  // by value: adj_swap_remove mutates edges_
  auto& bucket = buckets_[e.bucket];
  const std::uint32_t moved_b = bucket.back();
  bucket[e.bucket_pos] = moved_b;
  bucket.pop_back();
  if (moved_b != slot) edges_[moved_b].bucket_pos = e.bucket_pos;

  // Terminal endpoints hold no list entry. The two lists are distinct, so
  // the first removal never moves this slot's entry in v's list.
  if (e.pos_u != kNoPos) adj_swap_remove(e.u, e.pos_u);
  if (e.pos_v != kNoPos) adj_swap_remove(e.v, e.pos_v);
  free_slots_.push_back(slot);
}

void CensusEngine::rebucket_edge(std::uint32_t slot) {
  EdgeSlot& e = edges_[slot];
  auto& old_bucket = buckets_[e.bucket];
  const std::uint32_t moved = old_bucket.back();
  old_bucket[e.bucket_pos] = moved;
  old_bucket.pop_back();
  if (moved != slot) edges_[moved].bucket_pos = e.bucket_pos;

  const StateId su = world().state(e.u);
  const StateId sv = world().state(e.v);
  const std::uint32_t key = bucket_key(std::min(su, sv), std::max(su, sv));
  e.bucket = key;
  auto& bucket = buckets_[key];
  e.bucket_pos = static_cast<std::uint32_t>(bucket.size());
  bucket.push_back(slot);
}

std::uint32_t CensusEngine::find_edge_slot(int u, int v) {
  if (u > v) std::swap(u, v);
  const StateId su = world().state(u);
  const StateId sv = world().state(v);
  if (terminal_[su] && terminal_[sv]) {
    // Neither endpoint keeps a list; the edge sits in its states' bucket.
    ++stats_.slot_scans;
    for (const std::uint32_t slot : buckets_[bucket_key(std::min(su, sv), std::max(su, sv))]) {
      if (edges_[slot].u == u && edges_[slot].v == v) return slot;
    }
    return kNoSlot;
  }
  // Scan the shorter list among the endpoints that keep one.
  const std::uint32_t lu = terminal_[su] ? kNoPos : adj_len_[static_cast<std::size_t>(u)];
  const std::uint32_t lv = terminal_[sv] ? kNoPos : adj_len_[static_cast<std::size_t>(v)];
  const int node = lu <= lv ? u : v;
  const std::uint32_t len = lu <= lv ? lu : lv;
  for (std::uint32_t pos = 0; pos < len; ++pos) {
    const std::uint32_t slot = adj_at(node, pos);
    if (edges_[slot].u == u && edges_[slot].v == v) return slot;
  }
  return kNoSlot;
}

void CensusEngine::sweep_incident_edges(int u, std::uint32_t skip) {
  const auto node = static_cast<std::size_t>(u);
  // A node entering a terminal state never leaves it while the tables
  // mirror the world, so the sweep that rebuckets its edges drops its list.
  const bool drop = terminal_[world().state(u)] != 0;
  for (std::uint32_t pos = 0; pos < adj_len_[node]; ++pos) {
    const std::uint32_t slot = adj_at(u, pos);
    if (slot != skip) rebucket_edge(slot);
    if (drop) {
      EdgeSlot& e = edges_[slot];
      (e.u == u ? e.pos_u : e.pos_v) = kNoPos;
    }
  }
  if (drop) {
    adj_len_[node] = 0;
    std::vector<std::uint32_t>().swap(adj_over_[node]);
  }
}

void CensusEngine::node_list_move(int u, StateId from, StateId to) {
  auto& old_list = nodes_by_state_[from];
  const std::int32_t pos = node_pos_[static_cast<std::size_t>(u)];
  const std::int32_t moved = old_list.back();
  old_list[static_cast<std::size_t>(pos)] = moved;
  old_list.pop_back();
  node_pos_[static_cast<std::size_t>(moved)] = pos;

  auto& new_list = nodes_by_state_[to];
  node_pos_[static_cast<std::size_t>(u)] = static_cast<std::int32_t>(new_list.size());
  new_list.push_back(u);
}

void CensusEngine::touch_class(std::uint32_t ci) {
  const std::uint64_t now = class_multiplicity(classes_[ci]);
  const std::uint64_t old = weight_[ci];
  if (now == old) return;
  // Unsigned wrap-around makes one delta serve rises and falls alike.
  const std::uint64_t delta = now - old;
  for (std::size_t i = ci + 1; i < fenwick_.size(); i += lowbit(i)) fenwick_[i] += delta;
  total_weight_ += delta;
  weight_[ci] = now;
}

void CensusEngine::touch_state_classes(StateId q) {
  for (const std::uint32_t ci : classes_by_state_[q]) touch_class(ci);
}

void CensusEngine::refresh_weights() {
  const std::size_t c = classes_.size();
  fenwick_.assign(c + 1, 0);
  total_weight_ = 0;
  for (std::size_t i = 0; i < c; ++i) {
    weight_[i] = class_multiplicity(classes_[i]);
    total_weight_ += weight_[i];
    // O(|C|) build: node i + 1 is complete once its own weight lands (its
    // children all precede it), so it hands its sum to its parent.
    const std::size_t node = i + 1;
    fenwick_[node] += weight_[i];
    if (node + lowbit(node) <= c) fenwick_[node + lowbit(node)] += fenwick_[node];
  }
}

std::size_t CensusEngine::class_at(std::uint64_t r) const noexcept {
  // Descend to the longest prefix of classes whose weights sum to <= r; the
  // next class is the one r falls in. A zero-weight class has an empty
  // interval and is never returned.
  std::size_t pos = 0;
  for (std::size_t step = std::bit_floor(classes_.size()); step > 0; step >>= 1) {
    const std::size_t next = pos + step;
    if (next < fenwick_.size() && fenwick_[next] <= r) {
      pos = next;
      r -= fenwick_[next];
    }
  }
  return pos;
}

std::size_t CensusEngine::draw_class() { return class_at(rng().below(total_weight_)); }

std::uint64_t CensusEngine::effective_pair_weight() {
  sync_tables();
  return total_weight_;
}

CensusEngine::BucketEdge CensusEngine::sample_pair(const EffectiveClass& cls) {
  if (cls.c) {
    // The stored (u, v) orientation is fine even for a == b: the model's
    // symmetry-breaking coin in Simulator::apply assigns asymmetric
    // same-state outcomes equiprobably regardless of argument order, and
    // for a != b the rule table resolves orientation from the states.
    const auto& bucket = buckets_[bucket_key(cls.a, cls.b)];
    const std::uint32_t slot = bucket[rng().below(bucket.size())];
    return {edges_[slot].u, edges_[slot].v, slot};
  }

  const std::vector<std::int32_t>& as = nodes_by_state_[cls.a];
  const std::vector<std::int32_t>& bs = nodes_by_state_[cls.b];
  // Rejection over the (a, b) node product is uniform over the non-edge
  // pairs. The class has weight k >= 1 of those, so the loop ends almost
  // surely after |a||b|/k expected probes.
  while (true) {
    int u = 0;
    int v = 0;
    if (cls.a == cls.b) {
      const std::uint64_t i = rng().below(as.size());
      std::uint64_t j = rng().below(as.size() - 1);
      if (j >= i) ++j;
      u = as[static_cast<std::size_t>(i)];
      v = as[static_cast<std::size_t>(j)];
    } else {
      u = as[static_cast<std::size_t>(rng().below(as.size()))];
      v = bs[static_cast<std::size_t>(rng().below(bs.size()))];
    }
    if (!world().edge(u, v)) return {u, v};
  }
}

bool CensusEngine::list_effective_pairs() {
  listed_.clear();
  listed_mass_ = 0.0;
  std::uint64_t visited = 0;
  const auto list = [&](int u, int v, std::uint32_t slot) {
    listed_mass_ += weight_model_->pair_weight(u, v);
    listed_.push_back({{u, v, slot}, listed_mass_});
  };
  // The classes with nonzero weight, in index order: class_at(seen) is the
  // first class past the weight already walked.
  for (std::uint64_t seen = 0; seen < total_weight_;) {
    const std::size_t ci = class_at(seen);
    seen += weight_[ci];
    const EffectiveClass& cls = classes_[ci];
    const std::vector<std::int32_t>& as = nodes_by_state_[cls.a];
    const std::vector<std::int32_t>& bs = nodes_by_state_[cls.b];
    // An edge class lists its bucket; a non-edge class walks its whole node
    // product to find the pairs without an edge. Both costs are known before
    // the walk, so the class that would pass the cap is never walked.
    const std::uint64_t product =
        cls.a == cls.b ? as.size() * (as.size() - 1) / 2 : as.size() * bs.size();
    visited += cls.c ? weight_[ci] : product;
    if (static_cast<double>(visited) > list_cap_) return false;
    if (cls.c) {
      for (const std::uint32_t slot : buckets_[bucket_key(cls.a, cls.b)]) {
        list(edges_[slot].u, edges_[slot].v, slot);
      }
    } else if (cls.a == cls.b) {
      for (std::size_t i = 0; i < as.size(); ++i) {
        for (std::size_t j = i + 1; j < as.size(); ++j) {
          if (!world().edge(as[i], as[j])) list(as[i], as[j], kNoSlot);
        }
      }
    } else {
      for (const std::int32_t u : as) {
        for (const std::int32_t v : bs) {
          if (!world().edge(u, v)) list(u, v, kNoSlot);
        }
      }
    }
  }
  return true;
}

const CensusEngine::BucketEdge& CensusEngine::draw_listed_pair() {
  // One uniform draw against the running weight sums; the last pair
  // absorbs any rounding at the top of the range.
  const double r = rng().uniform() * listed_mass_;
  for (const ListedPair& listed : listed_) {
    if (r < listed.cumulative) return listed.pair;
  }
  return listed_.back().pair;
}

inline bool CensusEngine::advance_to_candidate(double p, std::uint64_t budget) {
  const std::uint64_t skips = rng().geometric_failures(p);
  const std::uint64_t at = steps();
  if (skips >= budget - at) {
    // The next candidate falls beyond the budget: the naive engine would
    // have burned the rest of it on ineffective steps. The discarded
    // geometric tail is redrawn by the next call -- exact, since the
    // geometric distribution is memoryless.
    stats_.geometric_skips += budget - at;
    skip_steps(budget - at);
    return false;
  }
  stats_.geometric_skips += skips;
  skip_steps(skips + 1);
  return true;
}

void CensusEngine::execute_and_update(int u, int v, std::uint32_t slot) {
  const World& w = world();
  const StateId sa = w.state(u);
  const StateId sb = w.state(v);
  const bool had_edge = slot != kNoSlot;

  // The encounter can only flip {u, v}, so the active-edge count's move is
  // its edge outcome -- no probe of the world needed.
  const std::int64_t edges_before = w.active_edge_count();
  if (!execute_encounter(u, v, had_edge)) {
    synced_version_ = kNeverSynced;  // impossible if the tables are sound
    return;
  }
  const bool has_edge = had_edge != (w.active_edge_count() != edges_before);

  const StateId na = w.state(u);
  const StateId nb = w.state(v);
  // A surviving edge keeps its adjacency membership; it only needs a
  // rebucket (covered by the incident-edge sweeps below, which read the
  // world's post-encounter states, so (u, v) lands on its final key).
  if (had_edge && !has_edge) erase_edge(slot);
  // Only a non-terminal node changes state, so the node moving has its
  // list; (u, v) was already rebucketed in u's sweep when sa changed too.
  if (sa != na) {
    node_list_move(u, sa, na);
    sweep_incident_edges(u, kNoSlot);
  }
  if (sb != nb) {
    node_list_move(v, sb, nb);
    sweep_incident_edges(v, sa != na ? slot : kNoSlot);
  }
  if (!had_edge && has_edge) insert_edge(u, v);

  // Every class whose multiplicity this encounter can change contains one
  // of the four touched states (counts: sa/na/sb/nb; buckets: edges moved
  // between (old-state, x) and (new-state, x) slots).
  touch_state_classes(sa);
  if (sb != sa) touch_state_classes(sb);
  if (na != sa && na != sb) touch_state_classes(na);
  if (nb != sa && nb != sb && nb != na) touch_state_classes(nb);
  synced_version_ = w.version();
}

CensusEngine::StepOutcome CensusEngine::advance(std::uint64_t budget) {
  sync_tables();
  // m counts the effective pairs among alive nodes; the model's weights are
  // strictly positive over *all* pairs (dead ones included -- the naive
  // scheduler burns steps on those too), so the scheduler-weighted
  // effective mass is zero iff m is.
  const std::uint64_t m = total_weight_;
  if (m == 0) return StepOutcome::kQuiescent;
  const double w_total = weight_model_->total_weight();

  // Listed regime (few effective pairs; see the header): a step is
  // effective with probability M / w_total, M the listed mass, and then
  // executes (u, v) with probability w / M -- P = w / w_total, the law
  // thinning reproduces.
  if (static_cast<double>(m) < list_cap_ && list_effective_pairs()) {
    if (!advance_to_candidate(listed_mass_ / w_total, budget)) {
      return StepOutcome::kBudgetExhausted;
    }
    const BucketEdge& pair = draw_listed_pair();
    execute_and_update(pair.u, pair.v, pair.slot);
    ++stats_.effective_samples;
    ++stats_.weighted_listed_steps;
    return StepOutcome::kExecuted;
  }

  const double w_hat = weight_model_->max_weight();
  const double p_hat = static_cast<double>(m) * w_hat / w_total;

  if (p_hat < 1.0) {
    // Thinning: a *candidate* effective step occurs with p_hat; a uniform
    // census draw then accepts with w(u,v)/w_hat, so
    //   P(step executes (u,v)) = p_hat * (1/m) * (w/w_hat) = w/w_total,
    // the scheduler's per-step law exactly. A rejected candidate is one of
    // the naive run's ineffective steps; its clock tick is already
    // consumed, and p_hat is unchanged (nothing moved), so the loop simply
    // redraws. Uniform-weight models hit w == w_hat and draw no coin.
    while (true) {
      if (!advance_to_candidate(p_hat, budget)) return StepOutcome::kBudgetExhausted;
      const std::size_t ci = draw_class();
      const BucketEdge pair = sample_pair(classes_[ci]);
      const double w = weight_model_->pair_weight(pair.u, pair.v);
      if (w < w_hat && !rng().bernoulli(w / w_hat)) {
        ++stats_.weighted_rejects;
        continue;
      }
      execute_and_update(pair.u, pair.v, pair.slot);
      ++stats_.effective_samples;
      return StepOutcome::kExecuted;
    }
  }

  // Dense regime (p_hat >= 1): thinning is invalid, so execute the
  // scheduler's law one step at a time straight from the model's sampler
  // -- still skipping nothing, exactly the naive semantics. Expected cost
  // per effective interaction is w_total / (effective mass) <= 1/p_hat *
  // (w_hat / w_min) draws, bounded by the model's weight floor; the regime
  // only arises when effective pairs dominate, where per-step execution is
  // cheap anyway.
  while (steps() < budget) {
    const Encounter e = weight_model_->sample(rng());
    skip_steps(1);
    ++stats_.weighted_dense_steps;
    const World& w = world();
    if (!w.alive(e.first) || !w.alive(e.second)) continue;
    const StateId a = w.state(e.first);
    const StateId b = w.state(e.second);
    const bool edge = w.edge(e.first, e.second);
    if (protocol().ineffective(std::min(a, b), std::max(a, b), edge)) continue;
    execute_and_update(e.first, e.second, edge ? find_edge_slot(e.first, e.second) : kNoSlot);
    ++stats_.effective_samples;
    return StepOutcome::kExecuted;
  }
  return StepOutcome::kBudgetExhausted;
}

bool CensusEngine::step() {
  const StepOutcome out = advance(std::numeric_limits<std::uint64_t>::max());
  if (out == StepOutcome::kQuiescent) {
    skip_steps(1);  // a quiescent configuration wastes the interaction
    return false;
  }
  return out == StepOutcome::kExecuted;
}

void CensusEngine::publish_metrics(telemetry::Registry& registry) {
  Simulator::publish_metrics(registry);
  // Per-(thread, registry) handle cache, same rationale as the base class:
  // one name lookup per campaign worker instead of one per trial.
  struct Handles {
    std::uint64_t registry_id = 0;
    std::uint64_t publishes = 0;
    telemetry::Counter* full_rebuilds = nullptr;
    telemetry::Counter* skips = nullptr;
    telemetry::Counter* samples = nullptr;
    telemetry::Counter* weighted_samples = nullptr;
    telemetry::Counter* weighted_rejects = nullptr;
    telemetry::Counter* weighted_dense = nullptr;
    telemetry::Counter* weighted_listed = nullptr;
    telemetry::Counter* slot_scans = nullptr;
    telemetry::Histogram* occupancy = nullptr;
  };
  thread_local Handles handles;
  if (handles.registry_id != registry.id()) {
    handles.full_rebuilds = &registry.counter("census.full_rebuilds");
    handles.skips = &registry.counter("census.geometric_skips");
    handles.samples = &registry.counter("census.effective_samples");
    handles.weighted_samples = &registry.counter("census.weighted_samples");
    handles.weighted_rejects = &registry.counter("census.weighted_rejects");
    handles.weighted_dense = &registry.counter("census.weighted_dense_steps");
    handles.weighted_listed = &registry.counter("census.weighted_listed_steps");
    handles.slot_scans = &registry.counter("census.slot_scans");
    handles.occupancy = &registry.histogram("census.bucket_occupancy",
                                            {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});
    handles.registry_id = registry.id();
  }
  handles.full_rebuilds->add(stats_.full_rebuilds);
  handles.skips->add(stats_.geometric_skips);
  handles.samples->add(stats_.effective_samples);
  handles.slot_scans->add(stats_.slot_scans);
  if (weight_model() != nullptr) {
    // Every census sample is a weighted one under a scheduler's own model.
    handles.weighted_samples->add(stats_.effective_samples);
    handles.weighted_rejects->add(stats_.weighted_rejects);
    handles.weighted_dense->add(stats_.weighted_dense_steps);
    handles.weighted_listed->add(stats_.weighted_listed_steps);
  }
  // The occupancy distribution is sampled 1-in-8 publishes: q(q+1)/2
  // histogram records per trial would be the single largest telemetry cost
  // on small-n campaigns, and a campaign publishing thousands of trials
  // still lands thousands of samples at 1-in-8.
  constexpr std::uint64_t kOccupancySampleEvery = 8;
  if (handles.publishes++ % kOccupancySampleEvery != 0) return;
  sync_tables();
  const int q = protocol().state_count();
  for (int a = 0; a < q; ++a) {
    for (int b = a; b < q; ++b) {
      handles.occupancy->record(static_cast<double>(
          buckets_[bucket_key(static_cast<StateId>(a), static_cast<StateId>(b))].size()));
    }
  }
}

std::size_t CensusEngine::debug_draw_class() {
  if (effective_pair_weight() == 0) return classes_.size();
  return draw_class();
}

std::optional<std::pair<int, int>> CensusEngine::debug_listed_draw() {
  if (effective_pair_weight() == 0 ||
      static_cast<double>(total_weight_) >= list_cap_ || !list_effective_pairs()) {
    return std::nullopt;
  }
  const BucketEdge& pair = draw_listed_pair();
  return std::pair{pair.u, pair.v};
}

const std::vector<EffectiveClass>& CensusEngine::debug_classes() {
  sync_tables();
  return classes_;
}

std::vector<std::uint64_t> CensusEngine::debug_class_weights() {
  (void)effective_pair_weight();
  return weight_;
}

std::string CensusEngine::debug_table_snapshot() {
  (void)effective_pair_weight();
  std::string out;
  for (std::size_t q = 0; q < nodes_by_state_.size(); ++q) {
    std::vector<std::int32_t> nodes = nodes_by_state_[q];
    std::sort(nodes.begin(), nodes.end());
    out += "s" + std::to_string(q) + ":";
    for (const std::int32_t u : nodes) out += " " + std::to_string(u);
    out += "\n";
  }
  for (std::size_t key = 0; key < buckets_.size(); ++key) {
    if (buckets_[key].empty()) continue;
    std::vector<std::pair<int, int>> pairs;
    pairs.reserve(buckets_[key].size());
    for (const std::uint32_t slot : buckets_[key]) {
      pairs.emplace_back(edges_[slot].u, edges_[slot].v);
    }
    std::sort(pairs.begin(), pairs.end());
    out += "b" + std::to_string(key) + ":";
    for (const auto& [u, v] : pairs) {
      out += " (" + std::to_string(u) + "," + std::to_string(v) + ")";
    }
    out += "\n";
  }
  out += "w:";
  for (const std::uint64_t w : weight_) out += " " + std::to_string(w);
  out += "\n";
  return out;
}

void CensusEngine::debug_force_full_rebuild() { rebuild_tables(); }

std::string CensusEngine::debug_incidence_violation() {
  sync_tables();
  const World& w = world();
  std::vector<std::vector<std::uint32_t>> want(static_cast<std::size_t>(w.size()));
  std::vector<char> free(edges_.size(), 0);
  for (const std::uint32_t slot : free_slots_) free[slot] = 1;
  for (std::uint32_t slot = 0; slot < edges_.size(); ++slot) {
    if (free[slot] != 0) continue;
    const EdgeSlot& e = edges_[slot];
    for (const auto& [node, pos] : {std::pair{e.u, e.pos_u}, std::pair{e.v, e.pos_v}}) {
      const auto where = [&, node = node] {
        return "slot " + std::to_string(slot) + " at node " + std::to_string(node);
      };
      if (terminal_[w.state(node)]) {
        if (pos != kNoPos) return where() + ": terminal endpoint has a list position";
        continue;
      }
      want[static_cast<std::size_t>(node)].push_back(slot);
      if (pos >= adj_len_[static_cast<std::size_t>(node)] || adj_at(node, pos) != slot) {
        return where() + ": position does not name its list entry";
      }
    }
  }
  for (int u = 0; u < w.size(); ++u) {
    std::vector<std::uint32_t> have;
    for (std::uint32_t pos = 0; pos < adj_len_[static_cast<std::size_t>(u)]; ++pos) {
      have.push_back(adj_at(u, pos));
    }
    std::vector<std::uint32_t>& need = want[static_cast<std::size_t>(u)];
    std::sort(have.begin(), have.end());
    std::sort(need.begin(), need.end());
    if (have != need) {
      return "node " + std::to_string(u) + (terminal_[w.state(u)] ? " (terminal)" : "") +
             ": list holds " + std::to_string(have.size()) + " slots, incident edges " +
             std::to_string(need.size());
    }
  }
  return {};
}

}  // namespace netcons
