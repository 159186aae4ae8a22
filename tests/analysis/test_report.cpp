#include "analysis/report.hpp"

#include "campaign/campaign.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace netcons::analysis {
namespace {

TEST(FitExponent, FitsPointMeansAndSkipsPointsWithoutSuccesses) {
  std::vector<campaign::PointResult> points(4);
  for (std::size_t i = 0; i < 3; ++i) {
    points[i].n = 8 << i;
    points[i].convergence_steps.add(3.0 * points[i].n * points[i].n);
  }
  points[3].n = 1024;  // every trial failed: no mean to fit
  const LinearFit fit = fit_exponent(points);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

campaign::GridPoint grid_point(std::string unit, std::string faults, int n,
                               std::string engine = "naive") {
  campaign::GridPoint point;
  point.unit = std::move(unit);
  point.scheduler = "uniform";
  point.faults = std::move(faults);
  point.faulted = point.faults != "none";
  point.engine = std::move(engine);
  point.n = n;
  return point;
}

using Pairs = std::vector<std::pair<std::size_t, std::size_t>>;

Pairs as_pairs(const std::vector<ComparePair>& in) {
  Pairs out;
  for (const ComparePair& pair : in) out.emplace_back(pair.a, pair.b);
  return out;
}

TEST(ComparePairs, MultiPlanRecordSetsPairPlanByPlan) {
  // Naive against census over the same three plans and two sizes: each
  // point meets only its own plan, never another one.
  std::vector<campaign::GridPoint> a;
  std::vector<campaign::GridPoint> b;
  for (const char* plan : {"none", "crash:k=1", "edge-burst:f=0.1"}) {
    for (const int n : {16, 24}) {
      a.push_back(grid_point("cycle-cover", plan, n, "naive"));
      b.push_back(grid_point("cycle-cover", plan, n, "census"));
    }
  }
  EXPECT_EQ(as_pairs(compare_pairs(a, b)), (Pairs{{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}}));
}

TEST(ComparePairs, AFaultFreeBaselineMeetsEveryPlan) {
  const std::vector<campaign::GridPoint> baseline = {grid_point("global-star", "none", 16)};
  const std::vector<campaign::GridPoint> faulted = {
      grid_point("global-star", "crash:k=1", 16), grid_point("global-star", "edge-burst:f=0.1", 16),
      grid_point("global-star", "crash:k=1", 24)};
  EXPECT_EQ(as_pairs(compare_pairs(baseline, faulted)), (Pairs{{0, 0}, {0, 1}}));
  EXPECT_EQ(as_pairs(compare_pairs(faulted, baseline)), (Pairs{{0, 0}, {1, 0}}));
}

TEST(ComparePairs, APlanMissingFromBFallsBackToEveryPlanOfTheCell) {
  const std::vector<campaign::GridPoint> a = {grid_point("global-star", "none", 16),
                                              grid_point("global-star", "crash:k=1", 16)};
  const std::vector<campaign::GridPoint> b = {grid_point("global-star", "none", 16),
                                              grid_point("global-star", "edge-burst:f=0.1", 16)};
  EXPECT_EQ(as_pairs(compare_pairs(a, b)), (Pairs{{0, 0}, {1, 0}, {1, 1}}));
}

TEST(ComparePairs, UnitSchedulerAndNMustMatch) {
  std::vector<campaign::GridPoint> a = {grid_point("global-star", "none", 16)};
  std::vector<campaign::GridPoint> b = {grid_point("cycle-cover", "none", 16),
                                        grid_point("global-star", "none", 24)};
  b.push_back(grid_point("global-star", "none", 16));
  b.back().scheduler = "proximity:r=0.3";
  EXPECT_TRUE(compare_pairs(a, b).empty());
}

}  // namespace
}  // namespace netcons::analysis
