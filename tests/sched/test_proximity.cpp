// ProximityScheduler correctness: the closed-form pair weight, exact
// totals, the grid-bucketed alias sampler's law against brute force, the
// stream-parity contract between next() and weight_model(), and the
// scheduler spec grammar (canonicalization + rejection).
#include "sched/proximity.hpp"

#include "campaign/campaign.hpp"
#include "campaign/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>

namespace netcons {
namespace {

double closed_form_weight(double distance, const ProximityParams& params) {
  if (distance >= params.radius) return ProximityScheduler::kFloor;
  const double shape = 1.0 - distance / params.radius;
  return ProximityScheduler::kFloor +
         (1.0 - ProximityScheduler::kFloor) * std::pow(shape, params.alpha);
}

TEST(ProximityScheduler, PairWeightMatchesTheClosedForm) {
  ProximityParams params;
  params.alpha = 2.0;
  params.radius = 0.3;
  ProximityScheduler scheduler(params);
  Rng rng(11);
  SchedulerWeightModel* model = scheduler.weight_model(rng, 40);
  ASSERT_NE(model, nullptr);
  const spatial::Placement& placement = scheduler.model()->placement();
  for (int u = 0; u < 40; ++u) {
    for (int v = u + 1; v < 40; ++v) {
      const double expected = closed_form_weight(placement.distance(u, v), params);
      EXPECT_NEAR(model->pair_weight(u, v), expected, 1e-12)
          << "pair (" << u << ", " << v << ")";
      EXPECT_EQ(model->pair_weight(u, v), model->pair_weight(v, u));
    }
  }
}

TEST(ProximityScheduler, TotalsAreExactBruteForceSums) {
  // total_weight() must be the exact sum over all unordered pairs (the
  // weighted clock depends on it) and max_weight() a true upper bound
  // (thinning correctness depends on it) -- for every layout.
  for (const spatial::Layout layout :
       {spatial::Layout::kUniform, spatial::Layout::kClustered, spatial::Layout::kGrid}) {
    ProximityParams params;
    params.alpha = 1.5;
    params.radius = 0.25;
    params.layout = layout;
    ProximityScheduler scheduler(params);
    Rng rng(23);
    SchedulerWeightModel* model = scheduler.weight_model(rng, 48);
    ASSERT_NE(model, nullptr);
    double sum = 0.0;
    double max_seen = 0.0;
    for (int u = 0; u < 48; ++u) {
      for (int v = u + 1; v < 48; ++v) {
        const double w = model->pair_weight(u, v);
        EXPECT_GT(w, 0.0);  // the fairness floor: every pair stays selectable
        sum += w;
        max_seen = std::max(max_seen, w);
      }
    }
    EXPECT_NEAR(model->total_weight(), sum, 1e-9 * sum) << spatial::layout_name(layout);
    EXPECT_GE(model->max_weight(), max_seen) << spatial::layout_name(layout);
    EXPECT_LE(model->max_weight(), 1.0 + 1e-12) << spatial::layout_name(layout);
  }
}

TEST(ProximityScheduler, SampleLawMatchesPairWeights) {
  // Empirical sample() frequencies against pair_weight/total_weight. This
  // doubles as the neighbor-list coverage test: a cell pair missing from
  // the alias table would starve its node pairs of the excess component
  // and push their frequencies far outside the tolerance. Grid layout and
  // a fixed seed keep the draw fully deterministic.
  ProximityParams params;
  params.alpha = 2.0;
  params.radius = 0.35;
  params.layout = spatial::Layout::kGrid;
  ProximityScheduler scheduler(params);
  Rng rng(3);
  SchedulerWeightModel* model = scheduler.weight_model(rng, 25);
  ASSERT_NE(model, nullptr);

  const int draws = 400000;
  std::map<std::pair<int, int>, int> counts;
  for (int i = 0; i < draws; ++i) {
    const Encounter e = model->sample(rng);
    ASSERT_NE(e.first, e.second);
    ASSERT_GE(std::min(e.first, e.second), 0);
    ASSERT_LT(std::max(e.first, e.second), 25);
    ++counts[{std::min(e.first, e.second), std::max(e.first, e.second)}];
  }
  for (int u = 0; u < 25; ++u) {
    for (int v = u + 1; v < 25; ++v) {
      const int count = counts[{u, v}];
      const double p = model->pair_weight(u, v) / model->total_weight();
      const double freq = count / static_cast<double>(draws);
      const double sigma = std::sqrt(p * (1.0 - p) / draws);
      EXPECT_NEAR(freq, p, 6.0 * sigma + 1e-9) << "pair (" << u << ", " << v << ")";
      EXPECT_GT(count, 0) << "pair (" << u << ", " << v << ") never sampled";
    }
  }
}

TEST(ProximityScheduler, FirstNextMatchesModelSample) {
  // The stream-parity contract (core/scheduler.hpp): building the model
  // consumes exactly the draws the first next() would, and both paths
  // share one sampler -- same seed, same encounter, same stream state.
  ProximityParams params;
  ProximityScheduler via_next_scheduler(params);
  ProximityScheduler via_model_scheduler(params);
  Rng rng_next(77);
  Rng rng_model(77);
  const Encounter via_next = via_next_scheduler.next(rng_next, 40);
  SchedulerWeightModel* model = via_model_scheduler.weight_model(rng_model, 40);
  ASSERT_NE(model, nullptr);
  const Encounter via_sample = model->sample(rng_model);
  EXPECT_EQ(via_next.first, via_sample.first);
  EXPECT_EQ(via_next.second, via_sample.second);
  EXPECT_EQ(rng_next(), rng_model());
}

TEST(ProximityScheduler, ModelRebuildsWhenThePopulationChanges) {
  ProximityScheduler scheduler(ProximityParams{});
  Rng rng(13);
  SchedulerWeightModel* small = scheduler.weight_model(rng, 16);
  ASSERT_NE(small, nullptr);
  EXPECT_EQ(scheduler.model()->placement().size(), 16);
  SchedulerWeightModel* large = scheduler.weight_model(rng, 32);
  ASSERT_NE(large, nullptr);
  EXPECT_EQ(scheduler.model()->placement().size(), 32);
}

TEST(ProximityScheduler, TinyRadiusBuildsAValidModel) {
  // 1 / r exceeds INT_MAX here; the cell grid must still come out as the
  // population cap instead of an out-of-range integer cast.
  const auto option = campaign::make_scheduler("proximity:r=1e-10");
  ASSERT_TRUE(option.has_value());
  const std::unique_ptr<Scheduler> scheduler = option->make();
  Rng rng(5);
  const int n = 16;
  SchedulerWeightModel* model = scheduler->weight_model(rng, n);
  ASSERT_NE(model, nullptr);
  EXPECT_TRUE(std::isfinite(model->min_weight()));
  EXPECT_TRUE(std::isfinite(model->max_weight()));
  EXPECT_GT(model->min_weight(), 0.0);
  EXPECT_LE(model->min_weight(), model->max_weight());
  for (int i = 0; i < 1000; ++i) {
    const Encounter e = model->sample(rng);
    ASSERT_GE(e.first, 0);
    ASSERT_LT(e.first, n);
    ASSERT_GE(e.second, 0);
    ASSERT_LT(e.second, n);
    ASSERT_NE(e.first, e.second);
  }
}

// --- spec grammar ----------------------------------------------------------

TEST(SchedulerRegistry, ProximitySpecCanonicalizes) {
  const auto bare = campaign::make_scheduler("proximity");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->name, "proximity:alpha=2:r=0.1:layout=uniform");
  ASSERT_NE(bare->make, nullptr);

  const auto partial = campaign::make_scheduler("proximity:r=0.25");
  ASSERT_TRUE(partial.has_value());
  EXPECT_EQ(partial->name, "proximity:alpha=2:r=0.25:layout=uniform");

  // Parameters reorder into the fixed alpha/r/layout order, preserving
  // the user's spelling of each value.
  const auto reordered = campaign::make_scheduler("proximity:layout=grid:alpha=1.5");
  ASSERT_TRUE(reordered.has_value());
  EXPECT_EQ(reordered->name, "proximity:alpha=1.5:r=0.1:layout=grid");

  const std::unique_ptr<Scheduler> built = reordered->make();
  const auto* proximity = dynamic_cast<ProximityScheduler*>(built.get());
  ASSERT_NE(proximity, nullptr);
  EXPECT_DOUBLE_EQ(proximity->params().alpha, 1.5);
  EXPECT_DOUBLE_EQ(proximity->params().radius, 0.1);
  EXPECT_EQ(proximity->params().layout, spatial::Layout::kGrid);
}

TEST(SchedulerRegistry, RejectsMalformedProximitySpecs) {
  for (const std::string spec :
       {"proximity:alpha=0", "proximity:alpha=-1", "proximity:r=0", "proximity:r=nope",
        "proximity:layout=ring", "proximity:junk", "proximity:alpha"}) {
    std::string error;
    EXPECT_FALSE(campaign::make_scheduler(spec, &error).has_value()) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

TEST(SchedulerRegistry, StaleBiasedSpecParsesBias) {
  const auto bare = campaign::make_scheduler("stale-biased");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->name, "stale-biased");  // the historical bias-0.5 spelling

  const auto biased = campaign::make_scheduler("stale-biased:bias=0.05");
  ASSERT_TRUE(biased.has_value());
  EXPECT_EQ(biased->name, "stale-biased:bias=0.05");
  ASSERT_NE(biased->make, nullptr);
  EXPECT_NE(biased->make(), nullptr);

  std::string error;
  EXPECT_FALSE(campaign::make_scheduler("stale-biased:bias=1", &error).has_value());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace netcons
