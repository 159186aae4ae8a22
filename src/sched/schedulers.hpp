// Additional schedulers beyond the uniform random one.
//
// * ScriptedScheduler drives an exact, hand-chosen execution -- the unit
//   tests use it to exercise individual transitions deterministically
//   (the "adversary" of the model made concrete).
// * RandomPermutationScheduler is a fair round-based scheduler: each round
//   plays all n(n-1)/2 pairs in a fresh random order. Used to check that
//   correctness (not timing) is scheduler-independent, as the paper's
//   correctness proofs only assume fairness.
// * StaleBiasedScheduler is a fair-but-skewed stress scheduler that favors
//   the least recently played pairs, probing sensitivity of measured times.
// Random-permutation and stale-biased export a UniformPairWeightModel
// (their single-step marginal law is uniform by symmetry), so the census
// engine runs them on weighted sampling; temporal correlations are
// deliberately dropped, and the CI weighted-census KS gate bounds the
// effect. ScriptedScheduler exports no model -- an exact script must
// execute step-for-step -- so the census engine refuses it (its
// constructor throws std::invalid_argument); run it on the naive engine.
#pragma once

#include "core/scheduler.hpp"

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

namespace netcons {

class ScriptedScheduler final : public Scheduler {
 public:
  /// Plays `script` in order; afterwards falls back to uniform random
  /// (or throws if `strict`).
  explicit ScriptedScheduler(std::vector<Encounter> script, bool strict = false)
      : script_(std::move(script)), strict_(strict) {}

  [[nodiscard]] Encounter next(Rng& rng, int n) override {
    if (position_ < script_.size()) return script_[position_++];
    if (strict_) throw std::out_of_range("ScriptedScheduler: script exhausted");
    return fallback_.next(rng, n);
  }

  void reset() override { position_ = 0; }

  [[nodiscard]] std::size_t position() const noexcept { return position_; }

 private:
  std::vector<Encounter> script_;
  bool strict_;
  std::size_t position_ = 0;
  UniformRandomScheduler fallback_;
};

class RandomPermutationScheduler final : public Scheduler {
 public:
  [[nodiscard]] Encounter next(Rng& rng, int n) override;
  void reset() override { cursor_ = 0; pairs_.clear(); }
  /// Every pair plays exactly once per round: the marginal is uniform.
  [[nodiscard]] SchedulerWeightModel* weight_model(Rng& rng, int n) override;

 private:
  std::vector<Encounter> pairs_;
  std::size_t cursor_ = 0;
  int n_ = 0;
  std::optional<UniformPairWeightModel> model_;
};

class StaleBiasedScheduler final : public Scheduler {
 public:
  /// `bias` in [0,1): probability of picking the stalest pair instead of a
  /// uniform one. bias = 0 degenerates to the uniform scheduler.
  explicit StaleBiasedScheduler(double bias = 0.5);

  [[nodiscard]] Encounter next(Rng& rng, int n) override;
  void reset() override { last_played_.clear(); }
  /// Under stationarity every pair is equally likely to be stalest, so
  /// the single-step marginal is uniform for any bias.
  [[nodiscard]] SchedulerWeightModel* weight_model(Rng& rng, int n) override;

 private:
  double bias_;
  std::vector<std::uint64_t> last_played_;
  std::uint64_t clock_ = 0;
  int n_ = 0;
  UniformRandomScheduler uniform_;
  std::optional<UniformPairWeightModel> model_;
};

}  // namespace netcons
