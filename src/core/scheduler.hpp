// Interaction schedulers. The model only requires fairness; running times
// are analyzed under the uniform random scheduler (Section 3.1), which is
// the default everywhere. Additional schedulers live in src/sched.
#pragma once

#include "util/rng.hpp"

#include <utility>

namespace netcons {

/// An unordered encounter; first < second is NOT guaranteed -- the pair is
/// symmetric and the simulator resolves orientation from the rule table.
struct Encounter {
  int first = 0;
  int second = 0;
};

/// The census engine's scheduler seam: a static per-pair sampling law the
/// scheduler induces over the n(n-1)/2 unordered pairs. A scheduler that
/// exports one runs on weighted census sampling (core/census_engine.cpp)
/// instead of forcing the naive per-step fallback: the engine thins
/// effective-class draws by pair_weight / max_weight and sizes its
/// geometric skip counts by the weighted effective mass.
///
/// Contract:
///  * pair_weight(u, v) > 0 for every pair of distinct nodes -- a
///    zero-weight pair would break the quiescence argument (an effective
///    pair the scheduler can never select keeps W > 0 forever).
///  * max_weight() >= pair_weight(u, v) for all pairs; the tighter the
///    bound, the fewer thinning rejections.
///  * 0 < min_weight() <= pair_weight(u, v) for all pairs. The engine lists
///    the effective pairs and draws among them exactly, instead of
///    thinning, whenever m * min_weight() < max_weight() (m effective
///    pairs): thinning would then expect more candidates per step than
///    there are pairs to list. A model with min_weight() == max_weight()
///    (every uniform-law model) never takes that path.
///  * total_weight() is the exact sum over ALL unordered pairs, dead
///    nodes included (the naive scheduler samples dead pairs too; they
///    execute as wasted steps, and the weighted clock must agree).
///  * sample(rng) draws a pair with probability pair_weight/total_weight
///    in O(1) expected time; it is the one primitive both the naive
///    next() path and the engine's dense regime share.
///  * Weights are static for the lifetime of a trial (placements are
///    per-trial; crash faults do not re-weight -- see above).
///
/// For history-dependent schedulers (random-permutation rounds,
/// stale-biased picks) the exported model is the single-step *marginal*
/// law, which is uniform by symmetry; census reproduces the marginal
/// exactly and deliberately ignores temporal correlations. The effect is
/// measurable: stale-biased (bias 0.05) on Cycle-Cover n = 64 reads
/// naive-vs-census KS 0.062-0.072 over 3000 v 3000 trials, across seeds.
/// The CI weighted-census KS gate bounds the observed effect per
/// scheduler.
///
/// The uniform random scheduler is the degenerate case: the census engine
/// runs it against its own UniformPairWeightModel, on the same loop.
class SchedulerWeightModel {
 public:
  virtual ~SchedulerWeightModel() = default;
  /// Weight of the unordered pair {u, v}, u != v. Strictly positive.
  [[nodiscard]] virtual double pair_weight(int u, int v) const = 0;
  /// Upper bound on pair_weight over all pairs.
  [[nodiscard]] virtual double max_weight() const = 0;
  /// Strictly positive lower bound on pair_weight over all pairs.
  [[nodiscard]] virtual double min_weight() const = 0;
  /// Exact sum of pair_weight over all n(n-1)/2 unordered pairs.
  [[nodiscard]] virtual double total_weight() const = 0;
  /// Draw a pair with probability pair_weight/total_weight; O(1) expected.
  [[nodiscard]] virtual Encounter sample(Rng& rng) const = 0;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  /// Select the next interacting pair among n nodes.
  [[nodiscard]] virtual Encounter next(Rng& rng, int n) = 0;
  /// Reset any internal round state (called when a simulation restarts).
  virtual void reset() {}
  /// The scheduler's pair-weight model for a population of n nodes, or
  /// nullptr when it has none (the census engine then refuses the
  /// scheduler: its constructor throws std::invalid_argument, and the
  /// trial must run on the naive engine). Building the model may consume
  /// `rng` (e.g. to embed the nodes in space); implementations must
  /// consume exactly the draws their first next() call would, so an
  /// engine that asks for the model up front leaves the trial's stream
  /// where the naive path would.
  /// The returned model is owned by the scheduler and stays valid for the
  /// scheduler's lifetime.
  [[nodiscard]] virtual SchedulerWeightModel* weight_model(Rng& rng, int n) {
    (void)rng;
    (void)n;
    return nullptr;
  }
};

/// The uniform pair law over n nodes: the census engine's model for the
/// uniform random scheduler, and the model every scheduler whose
/// single-step marginal is uniform (random-permutation, stale-biased)
/// exports. pair_weight == max_weight == min_weight everywhere, which the
/// census engine recognizes: it accepts without consuming acceptance
/// randomness and never lists pairs.
class UniformPairWeightModel final : public SchedulerWeightModel {
 public:
  explicit UniformPairWeightModel(int n) noexcept
      : n_(n),
        total_(static_cast<double>(n) * (static_cast<double>(n) - 1.0) / 2.0) {}

  [[nodiscard]] double pair_weight(int, int) const override { return 1.0; }
  [[nodiscard]] double max_weight() const override { return 1.0; }
  [[nodiscard]] double min_weight() const override { return 1.0; }
  [[nodiscard]] double total_weight() const override { return total_; }
  [[nodiscard]] Encounter sample(Rng& rng) const override {
    const int u = static_cast<int>(rng.below(static_cast<std::uint64_t>(n_)));
    int v = static_cast<int>(rng.below(static_cast<std::uint64_t>(n_ - 1)));
    if (v >= u) ++v;
    return {u, v};
  }

 private:
  int n_ = 0;
  double total_ = 0.0;
};

/// The uniform random scheduler: each of the n(n-1)/2 unordered pairs is
/// selected independently and uniformly at random in every step. Fair with
/// probability 1.
class UniformRandomScheduler final : public Scheduler {
 public:
  [[nodiscard]] Encounter next(Rng& rng, int n) override {
    const int u = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    int v = static_cast<int>(rng.below(static_cast<std::uint64_t>(n - 1)));
    if (v >= u) ++v;
    return {u, v};
  }
};

}  // namespace netcons
