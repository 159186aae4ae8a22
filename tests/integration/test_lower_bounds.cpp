// Empirical checks of the paper's lower bounds (Theorems 1, 2, 6, 8): every
// measured mean must dominate the corresponding bound's leading term with a
// small constant -- these are the rows of bench_lower_bounds, asserted here
// at test scale.
#include "protocols/protocols.hpp"

#include "campaign/campaign.hpp"
#include "util/stats.hpp"

#include <gtest/gtest.h>

namespace netcons {
namespace {

TEST(LowerBounds, SpanningNetDominatesNodeCover) {
  // Theorem 1: any spanning-network constructor needs Omega(n log n).
  const auto spec = protocols::spanning_net();
  for (int n : {32, 64}) {
    const auto point = campaign::run({.units = {campaign::Unit::protocol("spanning-net", spec)},
                                      .ns = {n},
                                      .trials = 15,
                                      .base_seed = static_cast<std::uint64_t>(1000 + n)})
                           .points.front();
    ASSERT_EQ(point.failures, 0);
    EXPECT_GT(point.convergence_steps.mean(),
              0.2 * theory::n_log_n(static_cast<std::uint64_t>(n)));
  }
}

TEST(LowerBounds, LineProtocolsDominateNSquared) {
  // Theorem 2: any spanning-line constructor needs Omega(n^2).
  for (int which = 0; which < 2; ++which) {
    const auto spec = which == 0 ? protocols::fast_global_line()
                                 : protocols::faster_global_line();
    const int n = 24;
    const auto point = campaign::run({.units = {campaign::Unit::protocol("line", spec)},
                                      .ns = {n},
                                      .trials = 8,
                                      .base_seed = static_cast<std::uint64_t>(2000 + which)})
                           .points.front();
    ASSERT_EQ(point.failures, 0);
    EXPECT_GT(point.convergence_steps.mean(),
              0.2 * theory::n_squared(static_cast<std::uint64_t>(n)))
        << spec.protocol.name();
  }
}

TEST(LowerBounds, StarDominatesN2LogN) {
  // Theorem 6: Omega(n^2 log n) for any spanning-star constructor.
  const auto spec = protocols::global_star();
  const int n = 24;
  const auto point = campaign::run({.units = {campaign::Unit::protocol("global-star", spec)},
                                    .ns = {n},
                                    .trials = 10,
                                    .base_seed = 3000})
                         .points.front();
  ASSERT_EQ(point.failures, 0);
  EXPECT_GT(point.convergence_steps.mean(),
            0.1 * theory::n_squared_log_n(static_cast<std::uint64_t>(n)));
}

TEST(LowerBounds, SimpleGlobalLineShowsSuperCubicGrowth) {
  // Theorem 3: Omega(n^4) for Simple-Global-Line. At test scale we check
  // the mean grows much faster than n^2 (full exponent fits are in the
  // bench): quadrupling from n=8 to n=16 should multiply time by >> 4.
  const auto spec = protocols::simple_global_line();
  const auto small = campaign::run({.units = {campaign::Unit::protocol("sgl", spec)},
                                    .ns = {8},
                                    .trials = 10,
                                    .base_seed = 4000})
                         .points.front();
  const auto large = campaign::run({.units = {campaign::Unit::protocol("sgl", spec)},
                                    .ns = {16},
                                    .trials = 10,
                                    .base_seed = 4001})
                         .points.front();
  ASSERT_EQ(small.failures, 0);
  ASSERT_EQ(large.failures, 0);
  const double ratio = large.convergence_steps.mean() / small.convergence_steps.mean();
  EXPECT_GT(ratio, 6.0);  // n^2 scaling would give ~4
}

TEST(LowerBounds, CycleCoverIsOptimalUpToConstants) {
  // Theorem 5: Theta(n^2) and optimal; mean/n^2 should be bounded above and
  // below across sizes.
  const auto spec = protocols::cycle_cover();
  for (int n : {24, 48}) {
    const auto point = campaign::run({.units = {campaign::Unit::protocol("cycle-cover", spec)},
                                      .ns = {n},
                                      .trials = 10,
                                      .base_seed = static_cast<std::uint64_t>(5000 + n)})
                           .points.front();
    ASSERT_EQ(point.failures, 0);
    const double normalized =
        point.convergence_steps.mean() / theory::n_squared(static_cast<std::uint64_t>(n));
    EXPECT_GT(normalized, 0.1);
    EXPECT_LT(normalized, 10.0);
  }
}

}  // namespace
}  // namespace netcons
