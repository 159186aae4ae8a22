#include "sched/schedulers.hpp"

#include "core/world.hpp"

namespace netcons {

Encounter RandomPermutationScheduler::next(Rng& rng, int n) {
  if (n != n_ || cursor_ >= pairs_.size()) {
    if (n != n_) {
      n_ = n;
      pairs_.clear();
      pairs_.reserve(World::pair_count(n));
      for (int v = 1; v < n; ++v) {
        for (int u = 0; u < v; ++u) pairs_.push_back({u, v});
      }
    }
    // Fisher-Yates reshuffle for the new round.
    for (std::size_t i = pairs_.size(); i > 1; --i) {
      const std::size_t j = rng.below(i);
      std::swap(pairs_[i - 1], pairs_[j]);
    }
    cursor_ = 0;
  }
  return pairs_[cursor_++];
}

SchedulerWeightModel* RandomPermutationScheduler::weight_model(Rng&, int n) {
  if (!model_ || n != n_) model_.emplace(n);
  return &*model_;
}

StaleBiasedScheduler::StaleBiasedScheduler(double bias) : bias_(bias) {
  if (bias < 0.0 || bias >= 1.0) {
    throw std::invalid_argument("StaleBiasedScheduler: bias must be in [0,1)");
  }
}

Encounter StaleBiasedScheduler::next(Rng& rng, int n) {
  if (n != n_) {
    n_ = n;
    last_played_.assign(World::pair_count(n), 0);
    clock_ = 0;
  }
  ++clock_;
  Encounter e{};
  if (rng.bernoulli(bias_)) {
    // Pick the stalest pair (ties broken by index). O(n^2) but this
    // scheduler is a correctness probe, not a throughput path.
    std::size_t best = 0;
    for (std::size_t i = 1; i < last_played_.size(); ++i) {
      if (last_played_[i] < last_played_[best]) best = i;
    }
    // Invert the triangular index.
    int v = 1;
    while (World::pair_count(v + 1) <= best) ++v;
    const int u = static_cast<int>(best - World::pair_count(v));
    e = {u, v};
  } else {
    e = uniform_.next(rng, n);
  }
  last_played_[World::pair_index(e.first, e.second)] = clock_;
  return e;
}

SchedulerWeightModel* StaleBiasedScheduler::weight_model(Rng&, int n) {
  if (!model_ || n != n_) model_.emplace(n);
  return &*model_;
}

}  // namespace netcons
