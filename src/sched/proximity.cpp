#include "sched/proximity.hpp"

#include <algorithm>
#include <cmath>

namespace netcons {

namespace {

/// Unordered pair count as a double (n can exceed the 32-bit triangle).
double pair_total(int n) {
  return static_cast<double>(n) * (static_cast<double>(n) - 1.0) / 2.0;
}

}  // namespace

ProximityWeightModel::ProximityWeightModel(const ProximityParams& params,
                                           spatial::Placement placement)
    : params_(params), placement_(std::move(placement)), n_(placement_.size()) {
  // Cell side must stay >= radius so every near pair (d < r) lives in the
  // same or an adjacent cell; capping the grid at ~sqrt(n) cells per side
  // keeps the table O(n) when the radius is much finer than the density.
  // The min is taken in double: 1 / r overflows int for r below ~4.7e-10.
  const double by_radius = params_.radius >= 1.0 ? 1.0 : std::floor(1.0 / params_.radius);
  const double by_population = std::ceil(std::sqrt(static_cast<double>(std::max(n_, 1))));
  cells_per_side_ = std::max(1, static_cast<int>(std::min(by_radius, by_population)));
  build_cells();
}

void ProximityWeightModel::build_cells() {
  const int c = cells_per_side_;
  cell_nodes_.assign(static_cast<std::size_t>(c) * static_cast<std::size_t>(c), {});
  for (int u = 0; u < n_; ++u) {
    const spatial::Point& p = placement_.position(u);
    const int cx = std::min(c - 1, static_cast<int>(p.x * c));
    const int cy = std::min(c - 1, static_cast<int>(p.y * c));
    cell_nodes_[static_cast<std::size_t>(cy) * c + cx].push_back(u);
  }

  // Candidate cell pairs: each cell with itself, plus the half
  // neighborhood (E, S, SE, SW) so every unordered adjacent pair appears
  // exactly once. The exact excess mass is summed here too -- a one-time
  // O(candidate pairs) pass; every later draw is O(1) expected.
  std::vector<double> counts;
  max_weight_ = ProximityScheduler::kFloor;
  for (int cy = 0; cy < c; ++cy) {
    for (int cx = 0; cx < c; ++cx) {
      const auto cell = static_cast<std::int32_t>(cy * c + cx);
      const auto& nodes = cell_nodes_[static_cast<std::size_t>(cell)];
      if (!nodes.empty()) {
        const double k = static_cast<double>(nodes.size());
        if (nodes.size() >= 2) {
          cell_pairs_.push_back({cell, cell});
          counts.push_back(k * (k - 1.0) / 2.0);
          for (std::size_t i = 0; i < nodes.size(); ++i) {
            for (std::size_t j = i + 1; j < nodes.size(); ++j) {
              const double e = excess(nodes[i], nodes[j]);
              excess_total_ += e;
              max_weight_ = std::max(max_weight_, ProximityScheduler::kFloor + e);
            }
          }
        }
        const int deltas[4][2] = {{1, 0}, {-1, 1}, {0, 1}, {1, 1}};
        for (const auto& delta : deltas) {
          const int nx = cx + delta[0];
          const int ny = cy + delta[1];
          if (nx < 0 || nx >= c || ny < 0 || ny >= c) continue;
          const auto other = static_cast<std::int32_t>(ny * c + nx);
          const auto& peers = cell_nodes_[static_cast<std::size_t>(other)];
          if (peers.empty()) continue;
          cell_pairs_.push_back({cell, other});
          counts.push_back(k * static_cast<double>(peers.size()));
          for (const std::int32_t u : nodes) {
            for (const std::int32_t v : peers) {
              const double e = excess(u, v);
              excess_total_ += e;
              max_weight_ = std::max(max_weight_, ProximityScheduler::kFloor + e);
            }
          }
        }
      }
    }
  }
  total_weight_ = ProximityScheduler::kFloor * pair_total(n_) + excess_total_;
  if (excess_total_ > 0.0) build_alias(counts);
}

void ProximityWeightModel::build_alias(const std::vector<double>& weights) {
  // Vose's alias method over the cell-pair candidate counts.
  const std::size_t k = weights.size();
  candidate_total_ = 0.0;
  for (const double w : weights) candidate_total_ += w;
  alias_prob_.assign(k, 1.0);
  alias_index_.resize(k);
  std::vector<double> scaled(k);
  std::vector<std::uint32_t> small;
  std::vector<std::uint32_t> large;
  for (std::size_t i = 0; i < k; ++i) {
    alias_index_[i] = static_cast<std::uint32_t>(i);
    scaled[i] = weights[i] * static_cast<double>(k) / candidate_total_;
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    large.pop_back();
    alias_prob_[s] = scaled[s];
    alias_index_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
}

std::size_t ProximityWeightModel::draw_cell_pair(Rng& rng) const {
  const auto i =
      static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(alias_prob_.size())));
  return rng.uniform() < alias_prob_[i] ? i : alias_index_[i];
}

double ProximityWeightModel::excess(int u, int v) const {
  const double d = placement_.distance(u, v);
  if (d >= params_.radius) return 0.0;
  return (1.0 - ProximityScheduler::kFloor) *
         std::pow(1.0 - d / params_.radius, params_.alpha);
}

double ProximityWeightModel::min_weight() const { return ProximityScheduler::kFloor; }

double ProximityWeightModel::pair_weight(int u, int v) const {
  return ProximityScheduler::kFloor + excess(u, v);
}

Encounter ProximityWeightModel::sample(Rng& rng) const {
  // Mixture: the uniform floor component in one draw, or the near-pair
  // excess component via cell-pair proposal + distance rejection.
  if (excess_total_ > 0.0 &&
      !rng.bernoulli(ProximityScheduler::kFloor * pair_total(n_) / total_weight_)) {
    for (;;) {
      const CellPair& pair = cell_pairs_[draw_cell_pair(rng)];
      int u = 0;
      int v = 0;
      if (pair.a == pair.b) {
        const auto& nodes = cell_nodes_[static_cast<std::size_t>(pair.a)];
        const auto i = static_cast<std::size_t>(
            rng.below(static_cast<std::uint64_t>(nodes.size())));
        auto j =
            static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(nodes.size() - 1)));
        if (j >= i) ++j;
        u = nodes[i];
        v = nodes[j];
      } else {
        const auto& a = cell_nodes_[static_cast<std::size_t>(pair.a)];
        const auto& b = cell_nodes_[static_cast<std::size_t>(pair.b)];
        u = a[static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(a.size())))];
        v = b[static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(b.size())))];
      }
      // Accept with (1 - d/r)^alpha: every candidate pair proposes with
      // equal probability, so accepted pairs are distributed ~ excess.
      if (rng.bernoulli(excess(u, v) / (1.0 - ProximityScheduler::kFloor))) return {u, v};
    }
  }
  const int u = static_cast<int>(rng.below(static_cast<std::uint64_t>(n_)));
  int v = static_cast<int>(rng.below(static_cast<std::uint64_t>(n_ - 1)));
  if (v >= u) ++v;
  return {u, v};
}

void ProximityScheduler::ensure_model(Rng& rng, int n) {
  if (model_ && model_->placement().size() == n) return;
  model_ = std::make_unique<ProximityWeightModel>(
      params_, spatial::Placement::make(params_.layout, n, rng));
}

Encounter ProximityScheduler::next(Rng& rng, int n) {
  ensure_model(rng, n);
  return model_->sample(rng);
}

SchedulerWeightModel* ProximityScheduler::weight_model(Rng& rng, int n) {
  ensure_model(rng, n);
  return model_.get();
}

}  // namespace netcons
