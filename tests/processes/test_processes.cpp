// Table 1 processes: completion, correctness of the final configuration, and
// agreement of the measured mean with the closed-form expectation of the
// corresponding proposition.
#include "processes/processes.hpp"

#include "campaign/campaign.hpp"
#include "graph/predicates.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

#include <gtest/gtest.h>

namespace netcons {
namespace {

TEST(Processes, AllSevenArePresent) {
  const auto all = all_processes();
  ASSERT_EQ(all.size(), 7u);
  EXPECT_EQ(all[0].name, "One-way epidemic");
  EXPECT_EQ(all[6].name, "Edge cover");
}

TEST(Processes, EpidemicInfectsEveryone) {
  auto spec = one_way_epidemic();
  Simulator sim(spec.protocol, 12, 3);
  spec.initialize(sim.mutable_world());
  ASSERT_TRUE(sim.run_until(spec.done, 1'000'000).has_value());
  EXPECT_EQ(sim.world().census(*spec.protocol.state_by_name("a")), 12);
}

TEST(Processes, OneToOneLeavesSingleLeader) {
  auto spec = one_to_one_elimination();
  Simulator sim(spec.protocol, 15, 5);
  ASSERT_TRUE(sim.run_until(spec.done, 1'000'000).has_value());
  EXPECT_EQ(sim.world().census(*spec.protocol.state_by_name("a")), 1);
}

TEST(Processes, MaximumMatchingBuildsAMatching) {
  for (int n : {8, 9}) {  // even and odd
    auto spec = maximum_matching();
    Simulator sim(spec.protocol, n, 7);
    ASSERT_TRUE(sim.run_until(spec.done, 1'000'000).has_value());
    EXPECT_TRUE(is_maximum_matching(sim.world().active_graph())) << n;
  }
}

TEST(Processes, OneToAllEliminatesEveryA) {
  auto spec = one_to_all_elimination();
  Simulator sim(spec.protocol, 14, 9);
  ASSERT_TRUE(sim.run_until(spec.done, 1'000'000).has_value());
  EXPECT_EQ(sim.world().census(*spec.protocol.state_by_name("a")), 0);
}

TEST(Processes, MeetEverybodyMarksAllOthers) {
  auto spec = meet_everybody();
  Simulator sim(spec.protocol, 10, 11);
  spec.initialize(sim.mutable_world());
  ASSERT_TRUE(sim.run_until(spec.done, 10'000'000).has_value());
  EXPECT_EQ(sim.world().census(*spec.protocol.state_by_name("m")), 9);
  EXPECT_EQ(sim.world().census(*spec.protocol.state_by_name("a")), 1);
}

TEST(Processes, NodeCoverTouchesEveryNode) {
  auto spec = node_cover();
  Simulator sim(spec.protocol, 13, 13);
  ASSERT_TRUE(sim.run_until(spec.done, 1'000'000).has_value());
  EXPECT_EQ(sim.world().census(*spec.protocol.state_by_name("b")), 13);
}

TEST(Processes, EdgeCoverActivatesAllPairs) {
  auto spec = edge_cover();
  Simulator sim(spec.protocol, 8, 15);
  ASSERT_TRUE(sim.run_until(spec.done, 10'000'000).has_value());
  EXPECT_EQ(sim.world().active_edge_count(), 28);
}

TEST(Processes, ProcessTrialsCompleteAtSmallSizes) {
  for (const auto& spec : all_processes()) {
    for (int n : {2, 3, 4}) {
      const campaign::TrialOutcome outcome = campaign::run_process_trial(spec, n, 99);
      EXPECT_TRUE(outcome.success) << spec.name << " n=" << n << ": " << outcome.error;
    }
  }
}

/// Parameterized mean-vs-theory agreement: for each process with an exact
/// expectation, the sample mean over many trials must be within 6 standard
/// errors (plus a small slack for the weakest formulas).
class ProcessExpectation : public ::testing::TestWithParam<int> {};

TEST_P(ProcessExpectation, MeanMatchesClosedForm) {
  const auto all = all_processes();
  const auto& spec = all[static_cast<std::size_t>(GetParam())];
  if (!spec.expectation_exact) GTEST_SKIP() << "shape-only expectation";
  const int n = 16;
  const int trials = 120;
  RunningStats stats;
  for (int t = 0; t < trials; ++t) {
    const campaign::TrialOutcome outcome =
        campaign::run_process_trial(spec, n, trial_seed(1234, static_cast<std::uint64_t>(t)));
    ASSERT_TRUE(outcome.success) << spec.name << ": " << outcome.error;
    stats.add(static_cast<double>(outcome.value));
  }
  const double expected = spec.expected_steps(n);
  const double tolerance = 6.0 * stats.sem() + 0.05 * expected;
  EXPECT_NEAR(stats.mean(), expected, tolerance)
      << spec.name << ": measured " << stats.mean() << " vs theory " << expected;
}

INSTANTIATE_TEST_SUITE_P(AllProcesses, ProcessExpectation, ::testing::Range(0, 7));

/// Scaling property: completion time grows with n for every process.
class ProcessMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(ProcessMonotonicity, MeanGrowsWithPopulation) {
  const auto all = all_processes();
  const auto& spec = all[static_cast<std::size_t>(GetParam())];
  RunningStats small, large;
  for (int t = 0; t < 30; ++t) {
    const campaign::TrialOutcome a =
        campaign::run_process_trial(spec, 8, trial_seed(55, static_cast<std::uint64_t>(t)));
    const campaign::TrialOutcome b =
        campaign::run_process_trial(spec, 32, trial_seed(77, static_cast<std::uint64_t>(t)));
    ASSERT_TRUE(a.success && b.success) << spec.name << ": " << a.error << b.error;
    small.add(static_cast<double>(a.value));
    large.add(static_cast<double>(b.value));
  }
  EXPECT_GT(large.mean(), small.mean()) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(AllProcesses, ProcessMonotonicity, ::testing::Range(0, 7));

}  // namespace
}  // namespace netcons
