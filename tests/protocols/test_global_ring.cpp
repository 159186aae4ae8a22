#include "protocols/protocols.hpp"

#include "campaign/campaign.hpp"
#include "graph/predicates.hpp"

#include <gtest/gtest.h>

namespace netcons {
namespace {

TEST(GlobalRing, TenStatesAsListedInProtocol5) {
  // The journal version's Protocol 5 lists Q = {q0, q1, q2, l, w, l_bar,
  // l', l'', q2', q2''} -- 10 states (Table 2's "9" predates the l_bar fix).
  EXPECT_EQ(protocols::global_ring().protocol.state_count(), 10);
}

class RingConvergence : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RingConvergence, StabilizesToSpanningRing) {
  const auto [n, seed] = GetParam();
  const auto spec = protocols::global_ring();
  const auto result = campaign::run_protocol_trial(spec, n,
      trial_seed(5000, static_cast<std::uint64_t>(seed)));
  EXPECT_TRUE(result.success) << result.error << "n=" << n;
  EXPECT_TRUE(result.target_ok) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RingConvergence,
                         ::testing::Combine(::testing::Values(3, 4, 5, 6, 8, 10),
                                            ::testing::Values(1, 2, 3)));

TEST(GlobalRing, PodcBugScenarioIsHandled) {
  // The PODC'14 version allowed one-edge lines to close on each other; the
  // journal fix (l_bar) must still stabilize from populations of size 4
  // (two one-edge lines) for many seeds.
  const auto spec = protocols::global_ring();
  for (int seed = 0; seed < 12; ++seed) {
    const auto result =
        campaign::run_protocol_trial(spec, 4, trial_seed(6000, static_cast<std::uint64_t>(seed)));
    EXPECT_TRUE(result.success) << "seed=" << seed << ": " << result.error;
  }
}

TEST(GlobalRing, NonSpanningCyclesReopen) {
  // Property: in any stabilized execution the final ring is spanning -- no
  // small blocked cycle survives (the detection rules reopen them).
  const auto spec = protocols::global_ring();
  for (int seed = 0; seed < 6; ++seed) {
    Simulator sim(spec.protocol, 7, trial_seed(7000, static_cast<std::uint64_t>(seed)));
    Simulator::StabilityOptions options;
    options.max_steps = spec.max_steps(7);
    const auto report = sim.run_until_stable(options);
    ASSERT_TRUE(report.stabilized);
    const Graph g = sim.world().output_graph(spec.protocol);
    EXPECT_TRUE(is_spanning_ring(g));
  }
}

}  // namespace
}  // namespace netcons
