// The proximity scheduler: nodes are embedded in the unit square
// (spatial/placement.hpp) and the probability of scheduling a pair decays
// with Euclidean distance -- the DTN-broadcast workload, and the first
// real consumer of the census engine's SchedulerWeightModel seam.
//
// Pair weight, for distance d, cutoff radius r and exponent alpha:
//
//   w(d) = kFloor + (1 - kFloor) * (1 - d/r)^alpha   when d < r
//   w(d) = kFloor                                    otherwise
//
// The constant floor keeps every pair selectable, which (a) preserves the
// model's fairness requirement -- with probability 1 every pair still
// occurs infinitely often -- and (b) keeps the census quiescence argument
// valid (an effective pair with weight zero would hold W > 0 forever).
//
// next() is O(1) expected at n = 10^5: a mixture draw takes the uniform
// floor component in one shot, and the near-pair excess component samples
// through an alias table over grid-cell candidate products (cells of side
// ~r, so near pairs live in same or adjacent cells) with rejection on the
// actual distance. The same sampler backs the weight model's sample(),
// so the naive and census paths share one law by construction.
#pragma once

#include "core/scheduler.hpp"
#include "spatial/placement.hpp"

#include <cstdint>
#include <memory>
#include <vector>

namespace netcons {

struct ProximityParams {
  double alpha = 2.0;            ///< Decay exponent; > 0.
  double radius = 0.1;           ///< Cutoff radius in unit-square units; > 0.
  spatial::Layout layout = spatial::Layout::kUniform;
};

/// The weight model over a fixed placement. Owned by the scheduler; also
/// the naive next() sampler (one law, two consumers).
class ProximityWeightModel final : public SchedulerWeightModel {
 public:
  ProximityWeightModel(const ProximityParams& params, spatial::Placement placement);

  [[nodiscard]] double pair_weight(int u, int v) const override;
  [[nodiscard]] double max_weight() const override { return max_weight_; }
  /// ProximityScheduler::kFloor: far pairs weigh exactly the floor.
  [[nodiscard]] double min_weight() const override;
  [[nodiscard]] double total_weight() const override { return total_weight_; }
  [[nodiscard]] Encounter sample(Rng& rng) const override;

  [[nodiscard]] const spatial::Placement& placement() const noexcept { return placement_; }

 private:
  /// One alias-table entry: an unordered cell pair (same cell, or a cell
  /// and one half-neighborhood neighbor) whose candidate count is the
  /// number of node pairs it can propose.
  struct CellPair {
    std::int32_t a = 0;
    std::int32_t b = 0;  ///< b == a: same-cell entry.
  };

  void build_cells();
  void build_alias(const std::vector<double>& weights);
  [[nodiscard]] std::size_t draw_cell_pair(Rng& rng) const;
  [[nodiscard]] double excess(int u, int v) const;  ///< w - kFloor.

  ProximityParams params_;
  spatial::Placement placement_;
  int n_ = 0;
  int cells_per_side_ = 1;
  std::vector<std::vector<std::int32_t>> cell_nodes_;
  std::vector<CellPair> cell_pairs_;
  /// Vose alias table over cell-pair candidate counts.
  std::vector<double> alias_prob_;
  std::vector<std::uint32_t> alias_index_;
  double candidate_total_ = 0.0;  ///< Sum of candidate counts.
  double excess_total_ = 0.0;     ///< Exact sum of (w - kFloor) over near pairs.
  double total_weight_ = 0.0;     ///< kFloor * pairs + excess_total_.
  double max_weight_ = 0.0;       ///< Max observed pair weight (>= kFloor).
};

class ProximityScheduler final : public Scheduler {
 public:
  /// The fairness floor: minimum selection weight of any pair relative to
  /// the peak weight 1.0 at distance 0.
  static constexpr double kFloor = 0.05;

  explicit ProximityScheduler(ProximityParams params) : params_(params) {}

  [[nodiscard]] Encounter next(Rng& rng, int n) override;
  [[nodiscard]] SchedulerWeightModel* weight_model(Rng& rng, int n) override;

  [[nodiscard]] const ProximityParams& params() const noexcept { return params_; }
  /// The model (and its placement), once built by next()/weight_model().
  [[nodiscard]] const ProximityWeightModel* model() const noexcept { return model_.get(); }

 private:
  void ensure_model(Rng& rng, int n);

  ProximityParams params_;
  std::unique_ptr<ProximityWeightModel> model_;
};

}  // namespace netcons
