#include "protocols/protocols.hpp"

#include "analysis/report.hpp"
#include "campaign/campaign.hpp"
#include "graph/predicates.hpp"
#include "util/stats.hpp"

#include <gtest/gtest.h>

namespace netcons {
namespace {

TEST(GlobalStar, TwoStatesOptimal) {
  EXPECT_EQ(protocols::global_star().protocol.state_count(), 2);
}

class StarConvergence : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(StarConvergence, StabilizesToSpanningStar) {
  const auto [n, seed] = GetParam();
  const auto spec = protocols::global_star();
  const auto result = campaign::run_protocol_trial(spec, n,
      trial_seed(4000, static_cast<std::uint64_t>(seed)));
  EXPECT_TRUE(result.success) << result.error << "n=" << n;
  EXPECT_TRUE(result.target_ok) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sweep, StarConvergence,
                         ::testing::Combine(::testing::Values(2, 3, 4, 5, 8, 12, 20, 30),
                                            ::testing::Values(1, 2, 3, 4)));

TEST(GlobalStar, CentersNeverIncrease) {
  const auto spec = protocols::global_star();
  const StateId c = *spec.protocol.state_by_name("c");
  Simulator sim(spec.protocol, 15, 7);
  int previous = sim.world().census(c);
  for (int burst = 0; burst < 100; ++burst) {
    sim.run(50);
    const int now = sim.world().census(c);
    EXPECT_LE(now, previous);
    previous = now;
  }
  EXPECT_GE(previous, 1);  // at least one center survives
}

TEST(GlobalStar, MeanTimeMatchesN2LogNShape) {
  const auto spec = protocols::global_star();
  const auto points = campaign::run({.units = {campaign::Unit::protocol("global-star", spec)},
                                     .ns = {12, 18, 26, 38, 52},
                                     .trials = 8,
                                     .base_seed = 777})
                          .points;
  for (const auto& p : points) ASSERT_EQ(p.failures, 0);
  // Theta(n^2 log n) fits a power law with exponent slightly above 2.
  const LinearFit fit = analysis::fit_exponent(points);
  EXPECT_GT(fit.slope, 1.8);
  EXPECT_LT(fit.slope, 2.7);
}

TEST(GlobalStar, LowerBoundedByMeetEverybody) {
  // Theorem 6's argument: the eventual center must meet everybody, so the
  // measured mean must dominate a constant fraction of Theta(n^2 log n).
  const auto spec = protocols::global_star();
  const int n = 24;
  const auto point = campaign::run({.units = {campaign::Unit::protocol("global-star", spec)},
                                    .ns = {n},
                                    .trials = 10,
                                    .base_seed = 888})
                         .points.front();
  ASSERT_EQ(point.failures, 0);
  EXPECT_EQ(point.convergence_steps.count(), 10u);
  EXPECT_GT(point.convergence_steps.mean(),
            0.25 * theory::meet_everybody(static_cast<std::uint64_t>(n)));
}

}  // namespace
}  // namespace netcons
