// CoordinatorCore: the lease grant/expiry/reassignment state machine,
// driven with an explicit fake clock (no transport anywhere). The invariant
// under test throughout: slots, never leases, decide completion — so
// worker deaths, reassignments, and double-completions can change *who*
// executes a trial but never whether it is counted exactly once.
#include "fabric/lease.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <set>

namespace {

using netcons::fabric::CoordinatorCore;
using netcons::fabric::CoreOptions;
using netcons::fabric::Lease;

using Clock = CoordinatorCore::Clock;

Clock::time_point t0() { return Clock::time_point{} + std::chrono::seconds(1000); }

CoreOptions options(int lease_size, int deadline_seconds = 10) {
  CoreOptions opt;
  opt.lease_size = lease_size;
  opt.deadline = std::chrono::seconds(deadline_seconds);
  return opt;
}

TEST(CoordinatorCore, GrantsGridInOrderAndCapsLeaseSize) {
  CoordinatorCore core(2, 10, options(4));
  const int worker = core.connect(t0());

  // 10 trials per point / lease 4 -> ranges 0-4, 4-8, 8-10 per point.
  const auto a = core.grant(worker, t0());
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->range.point, 0u);
  EXPECT_EQ(a->range.begin, 0);
  EXPECT_EQ(a->range.end, 4);

  const auto b = core.grant(worker, t0());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->range.begin, 4);
  EXPECT_EQ(b->range.end, 8);

  const auto c = core.grant(worker, t0());
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->range.begin, 8);
  EXPECT_EQ(c->range.end, 10);

  const auto d = core.grant(worker, t0());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->range.point, 1u);
  EXPECT_EQ(d->range.begin, 0);
}

TEST(CoordinatorCore, CompletingEveryLeaseReachesDone) {
  CoordinatorCore core(3, 7, options(5));
  const int worker = core.connect(t0());
  while (auto lease = core.grant(worker, t0())) {
    EXPECT_EQ(core.complete(worker, lease->id, t0()), lease->range.trials());
  }
  EXPECT_TRUE(core.done());
  EXPECT_EQ(core.committed(), 21u);
  EXPECT_EQ(core.outstanding(), 0u);
  EXPECT_EQ(core.pending(), 0u);
}

TEST(CoordinatorCore, NothingGrantableWhileAllWorkIsLeasedOut) {
  CoordinatorCore core(1, 4, options(4));
  const int w1 = core.connect(t0());
  const int w2 = core.connect(t0());
  const auto lease = core.grant(w1, t0());
  ASSERT_TRUE(lease.has_value());
  // The whole grid is outstanding: w2 gets nothing, but the campaign is
  // not done — this is the "wait" state.
  EXPECT_FALSE(core.grant(w2, t0()).has_value());
  EXPECT_FALSE(core.done());
}

TEST(CoordinatorCore, ExpiryRequeuesToTheFrontAndMarksTheWorkerDead) {
  CoordinatorCore core(2, 8, options(4, 10));
  const int doomed = core.connect(t0());
  const int survivor = core.connect(t0());
  const auto lease = core.grant(doomed, t0());
  ASSERT_TRUE(lease.has_value());

  // Survivor keeps heartbeating; the doomed worker goes silent.
  const auto later = t0() + std::chrono::seconds(11);
  core.heartbeat(survivor, later);
  const auto dead = core.expire(later);
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0], doomed);
  EXPECT_EQ(core.stats().workers_dead, 1u);
  EXPECT_EQ(core.stats().leases_requeued, 1u);
  EXPECT_EQ(core.live_workers(), 1u);
  EXPECT_FALSE(core.live(doomed));
  EXPECT_TRUE(core.live(survivor));

  // The requeued range beats fresh work to the next grant, under a new id.
  const auto regrant = core.grant(survivor, later);
  ASSERT_TRUE(regrant.has_value());
  EXPECT_EQ(regrant->range, lease->range);
  EXPECT_NE(regrant->id, lease->id);
}

TEST(CoordinatorCore, ExpiryIsDrivenOnlyByTheDeadline) {
  CoordinatorCore core(1, 4, options(4, 10));
  const int worker = core.connect(t0());
  EXPECT_TRUE(core.expire(t0() + std::chrono::seconds(9)).empty());
  core.heartbeat(worker, t0() + std::chrono::seconds(9));
  // The heartbeat reset the clock: still alive well past the original t0
  // deadline, dead once silence exceeds it again.
  EXPECT_TRUE(core.expire(t0() + std::chrono::seconds(18)).empty());
  EXPECT_EQ(core.expire(t0() + std::chrono::seconds(20)).size(), 1u);
}

TEST(CoordinatorCore, DoubleCompletionOfAReassignedLeaseCommitsOnce) {
  CoordinatorCore core(1, 4, options(4, 10));
  const int slow = core.connect(t0());
  const int fast = core.connect(t0());
  const auto original = core.grant(slow, t0());
  ASSERT_TRUE(original.has_value());

  // slow goes silent; its lease is reassigned to fast, who completes it.
  const auto later = t0() + std::chrono::seconds(11);
  core.heartbeat(fast, later);
  ASSERT_EQ(core.expire(later).size(), 1u);
  const auto replacement = core.grant(fast, later);
  ASSERT_TRUE(replacement.has_value());
  EXPECT_EQ(core.complete(fast, replacement->id, later), 4);
  EXPECT_TRUE(core.done());

  // slow was only silent, not gone: its late completion for the original
  // lease id must be harmless — zero fresh commits, all counted duplicate.
  EXPECT_EQ(core.complete(slow, original->id, later + std::chrono::seconds(1)), 0);
  EXPECT_EQ(core.committed(), 4u);
  EXPECT_TRUE(core.done());
  EXPECT_EQ(core.stats().duplicate_trials, 4u);
  EXPECT_EQ(core.stats().late_completions, 1u);
}

TEST(CoordinatorCore, LateCompletionBeforeTheReplacementCommitsAndShrinksTheRegrant) {
  CoordinatorCore core(1, 8, options(8, 10));
  const int slow = core.connect(t0());
  const int fast = core.connect(t0());
  const auto original = core.grant(slow, t0());
  ASSERT_TRUE(original.has_value());

  // The lease expires, but slow's done arrives BEFORE anyone re-executes:
  // its records are on disk, so the late completion commits all 8 slots.
  const auto later = t0() + std::chrono::seconds(11);
  core.heartbeat(fast, later);
  ASSERT_EQ(core.expire(later).size(), 1u);
  EXPECT_EQ(core.complete(slow, original->id, later), 8);
  EXPECT_TRUE(core.done());

  // The requeued range is now fully committed; fast gets nothing.
  EXPECT_FALSE(core.grant(fast, later).has_value());
}

TEST(CoordinatorCore, PrecommitShrinksTheGridLikeResume) {
  CoordinatorCore core(2, 4, options(10));
  // Point 0 fully recorded by an earlier run; point 1 half recorded.
  for (int t = 0; t < 4; ++t) core.precommit(0, t);
  core.precommit(1, 0);
  core.precommit(1, 1);
  core.precommit(1, 1);   // idempotent
  core.precommit(9, 0);   // out of grid: ignored
  core.precommit(1, 99);  // out of grid: ignored
  EXPECT_EQ(core.committed(), 6u);

  const int worker = core.connect(t0());
  const auto lease = core.grant(worker, t0());
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->range.point, 1u);
  EXPECT_EQ(lease->range.begin, 2);
  EXPECT_EQ(lease->range.end, 4);
  EXPECT_EQ(core.complete(worker, lease->id, t0()), 2);
  EXPECT_TRUE(core.done());
}

TEST(CoordinatorCore, EveryTrialCommitsExactlyOnceUnderChurn) {
  // Random-ish churn: two workers alternate, one repeatedly dies. However
  // leases bounce around, the committed count must hit the grid size with
  // every slot covered and none counted twice.
  CoordinatorCore core(3, 10, options(3, 10));
  auto now = t0();
  int live = core.connect(now);
  std::uint64_t round = 0;
  while (!core.done()) {
    ASSERT_LT(round++, 1000u) << "churn failed to converge";
    const auto lease = core.grant(live, now);
    if (!lease) {
      now += std::chrono::seconds(11);
      const auto dead = core.expire(now);
      if (!dead.empty()) live = core.connect(now);
      continue;
    }
    if (round % 3 == 0) {
      // This worker dies holding the lease; a fresh one replaces it.
      now += std::chrono::seconds(11);
      EXPECT_FALSE(core.expire(now).empty());
      live = core.connect(now);
    } else {
      core.complete(live, lease->id, now);
    }
  }
  EXPECT_EQ(core.committed(), 30u);
  EXPECT_EQ(core.total(), 30u);
  EXPECT_EQ(core.stats().duplicate_trials, 0u);  // nobody double-executed
}

TEST(CoordinatorCore, UnknownIdsAreIgnored) {
  CoordinatorCore core(1, 4, options(4));
  const int worker = core.connect(t0());
  EXPECT_EQ(core.complete(worker, 999, t0()), 0);  // never granted
  EXPECT_TRUE(core.live(worker));
  EXPECT_FALSE(core.live(12345));                  // never joined
  core.heartbeat(777, t0());                       // unknown worker: no-op
  EXPECT_EQ(core.committed(), 0u);
  const auto lease = core.grant(worker, t0());
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->range.trials(), 4);
}

TEST(CoordinatorCore, EmptyGridIsBornDone) {
  CoordinatorCore core(0, 10, options(4));
  EXPECT_TRUE(core.done());
  const int worker = core.connect(t0());
  EXPECT_FALSE(core.grant(worker, t0()).has_value());
}

}  // namespace
