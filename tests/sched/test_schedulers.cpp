#include "sched/schedulers.hpp"

#include "core/world.hpp"

#include <gtest/gtest.h>

#include <set>

namespace netcons {
namespace {

TEST(ScriptedScheduler, PlaysScriptThenFallsBack) {
  ScriptedScheduler s({{0, 1}, {2, 3}});
  Rng rng(1);
  auto e1 = s.next(rng, 5);
  EXPECT_EQ(e1.first, 0);
  EXPECT_EQ(e1.second, 1);
  auto e2 = s.next(rng, 5);
  EXPECT_EQ(e2.first, 2);
  EXPECT_EQ(e2.second, 3);
  // Fallback: still a valid pair.
  auto e3 = s.next(rng, 5);
  EXPECT_NE(e3.first, e3.second);
  EXPECT_GE(e3.first, 0);
  EXPECT_LT(e3.first, 5);
}

TEST(ScriptedScheduler, StrictThrowsWhenExhausted) {
  ScriptedScheduler s({{0, 1}}, /*strict=*/true);
  Rng rng(1);
  (void)s.next(rng, 3);
  EXPECT_THROW((void)s.next(rng, 3), std::out_of_range);
  s.reset();
  EXPECT_NO_THROW((void)s.next(rng, 3));
}

TEST(RandomPermutationScheduler, EachRoundCoversAllPairs) {
  RandomPermutationScheduler s;
  Rng rng(7);
  const int n = 6;
  const auto pairs = World::pair_count(n);
  for (int round = 0; round < 3; ++round) {
    std::set<std::size_t> seen;
    for (std::size_t i = 0; i < pairs; ++i) {
      const Encounter e = s.next(rng, n);
      EXPECT_NE(e.first, e.second);
      seen.insert(World::pair_index(e.first, e.second));
    }
    EXPECT_EQ(seen.size(), pairs) << "round " << round;
  }
}

TEST(RandomPermutationScheduler, AdaptsToPopulationChange) {
  RandomPermutationScheduler s;
  Rng rng(9);
  (void)s.next(rng, 4);
  const Encounter e = s.next(rng, 6);  // population grew mid-run
  EXPECT_LT(e.first, 6);
  EXPECT_LT(e.second, 6);
}

TEST(StaleBiasedScheduler, ProducesValidPairs) {
  StaleBiasedScheduler s(0.7);
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const Encounter e = s.next(rng, 7);
    EXPECT_NE(e.first, e.second);
    EXPECT_GE(std::min(e.first, e.second), 0);
    EXPECT_LT(std::max(e.first, e.second), 7);
  }
}

TEST(StaleBiasedScheduler, EventuallyCoversAllPairs) {
  StaleBiasedScheduler s(0.9);
  Rng rng(13);
  const int n = 5;
  std::set<std::size_t> seen;
  for (int i = 0; i < 200; ++i) {
    const Encounter e = s.next(rng, n);
    seen.insert(World::pair_index(e.first, e.second));
  }
  EXPECT_EQ(seen.size(), World::pair_count(n));
}

TEST(StaleBiasedScheduler, RejectsBadBias) {
  EXPECT_THROW(StaleBiasedScheduler(1.0), std::invalid_argument);
  EXPECT_THROW(StaleBiasedScheduler(-0.1), std::invalid_argument);
}

TEST(UniformRandomScheduler, MarginalsAreUniform) {
  UniformRandomScheduler s;
  Rng rng(17);
  const int n = 5;
  std::vector<int> count(World::pair_count(n), 0);
  const int samples = 100000;
  for (int i = 0; i < samples; ++i) {
    const Encounter e = s.next(rng, n);
    ++count[World::pair_index(e.first, e.second)];
  }
  const double expected = static_cast<double>(samples) / static_cast<double>(count.size());
  for (int c : count) {
    EXPECT_NEAR(c, expected, expected * 0.1);
  }
}

}  // namespace
}  // namespace netcons
