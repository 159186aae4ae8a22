#include "protocols/protocols.hpp"

#include "analysis/report.hpp"
#include "campaign/campaign.hpp"
#include "graph/predicates.hpp"

#include <gtest/gtest.h>

namespace netcons {
namespace {

TEST(CycleCover, ThreeStates) {
  EXPECT_EQ(protocols::cycle_cover().protocol.state_count(), 3);
}

class CycleCoverConvergence : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CycleCoverConvergence, StabilizesToCycleCover) {
  const auto [n, seed] = GetParam();
  const auto spec = protocols::cycle_cover();
  const auto result = campaign::run_protocol_trial(spec, n,
      trial_seed(2000, static_cast<std::uint64_t>(seed)));
  EXPECT_TRUE(result.success) << result.error << "n=" << n;
  EXPECT_TRUE(result.target_ok) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CycleCoverConvergence,
                         ::testing::Combine(::testing::Values(3, 4, 5, 6, 9, 16, 25, 40),
                                            ::testing::Values(1, 2, 3, 4)));

TEST(CycleCover, DegreeInvariantHoldsThroughout) {
  // Theorem 5: a node in state q_i always has active degree exactly i.
  const auto spec = protocols::cycle_cover();
  Simulator sim(spec.protocol, 20, 5);
  for (int burst = 0; burst < 50; ++burst) {
    sim.run(100);
    for (int u = 0; u < sim.world().size(); ++u) {
      EXPECT_EQ(static_cast<int>(sim.world().state(u)), sim.world().active_degree(u));
    }
  }
}

TEST(CycleCover, WasteIsAtMostTwo) {
  const auto spec = protocols::cycle_cover();
  for (int seed = 0; seed < 5; ++seed) {
    Simulator sim(spec.protocol, 11, trial_seed(3000, static_cast<std::uint64_t>(seed)));
    Simulator::StabilityOptions options;
    options.max_steps = spec.max_steps(11);
    const auto report = sim.run_until_stable(options);
    ASSERT_TRUE(report.stabilized);
    int not_in_cycle = 0;
    for (int u = 0; u < sim.world().size(); ++u) {
      if (sim.world().active_degree(u) != 2) ++not_in_cycle;
    }
    EXPECT_LE(not_in_cycle, 2);
  }
}

TEST(CycleCover, MeanTimeIsQuadraticShape) {
  // Theta(n^2): the fitted exponent over a small sweep should be ~2.
  const auto spec = protocols::cycle_cover();
  const auto points = campaign::run({.units = {campaign::Unit::protocol("cycle-cover", spec)},
                                     .ns = {16, 24, 32, 48, 64},
                                     .trials = 10,
                                     .base_seed = 4242})
                          .points;
  for (const auto& p : points) ASSERT_EQ(p.failures, 0);
  const LinearFit fit = analysis::fit_exponent(points);
  EXPECT_NEAR(fit.slope, 2.0, 0.35);
  EXPECT_GT(fit.r_squared, 0.95);
}

}  // namespace
}  // namespace netcons
