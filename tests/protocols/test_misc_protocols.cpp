// Spanning-Net (Theorem 1 upper bound), Degree-Doubling (Section 7), and the
// (U, D, M) partition (Theorem 15 substrate).
#include "protocols/protocols.hpp"

#include "analysis/report.hpp"
#include "campaign/campaign.hpp"
#include "graph/predicates.hpp"
#include "util/stats.hpp"

#include <gtest/gtest.h>

namespace netcons {
namespace {

class SpanningNetConvergence : public ::testing::TestWithParam<int> {};

TEST_P(SpanningNetConvergence, EveryNodeGetsCovered) {
  const int n = GetParam();
  const auto spec = protocols::spanning_net();
  const auto result = campaign::run_protocol_trial(spec, n,
      trial_seed(15000, static_cast<std::uint64_t>(n)));
  EXPECT_TRUE(result.success) << result.error;
  EXPECT_TRUE(result.target_ok);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SpanningNetConvergence, ::testing::Values(2, 3, 5, 10, 30, 80));

TEST(SpanningNet, TimeTracksNodeCoverShape) {
  // Theorem 1: Theta(n log n) -- the fitted exponent should be near 1.
  const auto spec = protocols::spanning_net();
  const auto points = campaign::run({.units = {campaign::Unit::protocol("spanning-net", spec)},
                                     .ns = {32, 64, 128, 256},
                                     .trials = 20,
                                     .base_seed = 616})
                          .points;
  for (const auto& p : points) ASSERT_EQ(p.failures, 0);
  const LinearFit fit = analysis::fit_exponent(points);
  EXPECT_GT(fit.slope, 0.9);
  EXPECT_LT(fit.slope, 1.4);
}

class DegreeDoubling : public ::testing::TestWithParam<int> {};

TEST_P(DegreeDoubling, HubGetsExactly2ToTheD) {
  const int d = GetParam();
  const auto spec = protocols::degree_doubling(d);
  const int n = (1 << d) + 4;  // enough a0 material plus slack
  const auto result =
      campaign::run_protocol_trial(spec, n, trial_seed(16000, static_cast<std::uint64_t>(d)));
  ASSERT_TRUE(result.success) << result.error << "d=" << d;
  EXPECT_TRUE(result.target_ok) << "d=" << d;
}

INSTANTIATE_TEST_SUITE_P(Depths, DegreeDoubling, ::testing::Values(1, 2, 3, 4));

TEST(DegreeDoubling, StateCountIsLinearInD) {
  // Theta(d) states although the constructed degree is 2^d -- the paper's
  // point that max degree does not lower-bound protocol size.
  const int states_d3 = protocols::degree_doubling(3).protocol.state_count();
  const int states_d6 = protocols::degree_doubling(6).protocol.state_count();
  EXPECT_EQ(states_d6 - states_d3, 2 * 3);  // +2 states per unit of d
  EXPECT_THROW((void)protocols::degree_doubling(0), std::invalid_argument);
}

class PartitionUdm : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PartitionUdm, SplitsIntoMatchedTriples) {
  const auto [n, seed] = GetParam();
  const auto spec = protocols::partition_udm();
  Simulator sim(spec.protocol, n, trial_seed(17000, static_cast<std::uint64_t>(seed)));
  Simulator::StabilityOptions options;
  options.max_steps = spec.max_steps(n);
  options.certificate = spec.certificate;
  const auto report = sim.run_until_stable(options);
  ASSERT_TRUE(report.stabilized) << "n=" << n;

  const Protocol& p = spec.protocol;
  const int qu = sim.world().census(*p.state_by_name("qu"));
  const int qd = sim.world().census(*p.state_by_name("qd"));
  const int qm = sim.world().census(*p.state_by_name("qm"));
  // Every satisfied U-node has exactly one D- and one M-partner; when
  // n % 3 == 2, the leftover unsatisfied qu' keeps a qd partner, so qd may
  // exceed qu by one.
  EXPECT_EQ(qu, qm);
  EXPECT_GE(qd, qu);
  EXPECT_LE(qd - qu, 1);
  EXPECT_GE(3 * qu, n - 2);  // waste <= 2
}

INSTANTIATE_TEST_SUITE_P(Sweep, PartitionUdm,
                         ::testing::Combine(::testing::Values(6, 9, 10, 11, 15, 30),
                                            ::testing::Values(1, 2, 3)));

class PreelectedLine : public ::testing::TestWithParam<int> {};

TEST_P(PreelectedLine, LeaderBuildsASpanningLine) {
  const int n = GetParam();
  const auto spec = protocols::preelected_line();
  const auto result =
      campaign::run_protocol_trial(spec, n, trial_seed(18000, static_cast<std::uint64_t>(n)));
  EXPECT_TRUE(result.success) << result.error;
  EXPECT_TRUE(result.target_ok);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PreelectedLine, ::testing::Values(2, 3, 5, 10, 25, 50));

TEST(PreelectedLine, MatchesMeetEverybodyShape) {
  // Section 7: Theta(n^2 log n) -- the meet-everybody process paces it.
  const auto spec = protocols::preelected_line();
  const auto points = campaign::run({.units = {campaign::Unit::protocol("preelected", spec)},
                                     .ns = {16, 32, 64, 96},
                                     .trials = 10,
                                     .base_seed = 616})
                          .points;
  for (const auto& p : points) ASSERT_EQ(p.failures, 0);
  const LinearFit fit = analysis::fit_exponent(points);
  EXPECT_GT(fit.slope, 1.8);
  EXPECT_LT(fit.slope, 2.6);
}

TEST(PreelectedLine, FasterThanAnyLeaderlessLineProtocol) {
  // The whole point of the paper's open question: the pre-elected-leader
  // baseline beats every leaderless construction at moderate n.
  const int n = 32;
  const auto pre =
      campaign::run({.units = {campaign::Unit::protocol("preelected", protocols::preelected_line())},
                     .ns = {n},
                     .trials = 6,
                     .base_seed = 717})
          .points.front();
  const auto fast =
      campaign::run({.units = {campaign::Unit::protocol("fast", protocols::fast_global_line())},
                     .ns = {n},
                     .trials = 6,
                     .base_seed = 718})
          .points.front();
  ASSERT_EQ(pre.failures, 0);
  ASSERT_EQ(fast.failures, 0);
  EXPECT_LT(pre.convergence_steps.mean(), fast.convergence_steps.mean());
}

TEST(PartitionUdm, StructureIsThreeWayMatching) {
  const auto spec = protocols::partition_udm();
  Simulator sim(spec.protocol, 12, 99);
  Simulator::StabilityOptions options;
  options.max_steps = spec.max_steps(12);
  options.certificate = spec.certificate;
  ASSERT_TRUE(sim.run_until_stable(options).stabilized);
  const Protocol& p = spec.protocol;
  const StateId qu = *p.state_by_name("qu");
  const StateId qd = *p.state_by_name("qd");
  const StateId qm = *p.state_by_name("qm");
  for (int u = 0; u < 12; ++u) {
    if (sim.world().state(u) != qu) continue;
    int d_count = 0, m_count = 0;
    for (int v : sim.world().active_neighbors(u)) {
      if (sim.world().state(v) == qd) ++d_count;
      if (sim.world().state(v) == qm) ++m_count;
    }
    EXPECT_EQ(d_count, 1);
    EXPECT_EQ(m_count, 1);
  }
}

}  // namespace
}  // namespace netcons
