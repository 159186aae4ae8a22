// Campaign-level fault-axis contract: grid expansion, recovery aggregates,
// and the determinism acceptance criterion -- identical FaultPlan + seed
// must produce bit-identical campaign JSON for any thread count.
#include "campaign/campaign.hpp"

#include "campaign/registry.hpp"
#include "campaign/result_sink.hpp"
#include "protocols/protocols.hpp"

#include <gtest/gtest.h>

namespace netcons::campaign {
namespace {

CampaignSpec faulted_campaign() {
  CampaignSpec spec;
  spec.units.push_back(Unit::protocol("simple-global-line", protocols::simple_global_line()));
  spec.units.push_back(Unit::protocol("global-star", protocols::global_star()));
  spec.faults.push_back(*make_fault_plan("none"));
  spec.faults.push_back(*make_fault_plan("crash:k=1"));
  spec.faults.push_back(*make_fault_plan("edge-burst:f=0.2"));
  spec.ns = {12};
  spec.trials = 8;
  spec.base_seed = 2026;
  return spec;
}

TEST(FaultCampaign, FaultAxisExpandsTheGrid) {
  const CampaignResult result = run(faulted_campaign());
  ASSERT_EQ(result.points.size(), 6u);  // 2 units x 3 plans x 1 n
  EXPECT_EQ(result.points[0].faults, "none");
  EXPECT_EQ(result.points[1].faults, "crash:k=1");
  EXPECT_EQ(result.points[2].faults, "edge-burst:f=0.2");
}

TEST(FaultCampaign, RecoveryAggregatesArePopulatedOnlyUnderFaults) {
  const CampaignResult result = run(faulted_campaign());
  for (const auto& point : result.points) {
    if (point.faults == "none") {
      EXPECT_EQ(point.faults_injected.count(), 0u);
      EXPECT_EQ(point.recovery_steps.count(), 0u);
      EXPECT_EQ(point.damaged, 0);
    } else {
      EXPECT_EQ(point.faults_injected.count(), static_cast<std::size_t>(point.trials));
      EXPECT_GT(point.faults_injected.mean(), 0.0);
      EXPECT_EQ(point.recovery_steps.count(),
                static_cast<std::size_t>(point.trials - point.failures));
    }
  }
}

TEST(FaultCampaign, StarRepairsWhileLineKeepsDamage) {
  const CampaignResult result = run(faulted_campaign());
  for (const auto& point : result.points) {
    if (point.faults != "edge-burst:f=0.2") continue;
    EXPECT_EQ(point.failures, 0) << point.unit;  // all trials re-stabilize
    if (point.unit == "global-star") {
      // Every deleted star edge is rebuilt; target always restored.
      EXPECT_EQ(point.damaged, 0);
      EXPECT_DOUBLE_EQ(point.edges_residual.mean(), 0.0);
      EXPECT_GT(point.edges_repaired.mean(), 0.0);
    }
  }
}

TEST(FaultCampaign, JsonIsBitIdenticalAcrossThreadCounts) {
  // The acceptance criterion of the fault subsystem: a faulted campaign's
  // JSON (and CSV) must not depend on --threads.
  const CampaignSpec spec = faulted_campaign();
  RunOptions serial;
  serial.threads = 1;
  RunOptions parallel;
  parallel.threads = 8;

  const CampaignResult a = run(spec, serial);
  const CampaignResult b = run(spec, parallel);
  EXPECT_EQ(to_json(a), to_json(b));
  EXPECT_EQ(to_csv(a), to_csv(b));
}

TEST(FaultCampaign, NoFaultAxisKeepsLegacySeedsAndSemantics) {
  // Without a fault axis the grid (and thus every per-trial seed) must be
  // laid out exactly as before the axis existed: same point seeds as an
  // explicit single "none" plan, and target misses still count as failures.
  CampaignSpec implicit;
  implicit.units.push_back(Unit::protocol("global-star", protocols::global_star()));
  implicit.ns = {8, 12};
  implicit.trials = 5;
  implicit.base_seed = 7;

  CampaignSpec explicit_none = implicit;
  explicit_none.faults.push_back(*make_fault_plan("none"));

  const CampaignResult a = run(implicit);
  const CampaignResult b = run(explicit_none);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].seed, b.points[i].seed);
    EXPECT_EQ(summarize(a.points[i]), summarize(b.points[i]));
  }
}

TEST(FaultRegistry, ParsesAndRejectsPlans) {
  EXPECT_TRUE(make_fault_plan("crash:k=2").has_value());
  std::string error;
  EXPECT_FALSE(make_fault_plan("meteor:x=1", &error).has_value());
  EXPECT_NE(error.find("grammar"), std::string::npos);
  EXPECT_FALSE(fault_plan_examples().empty());
}

}  // namespace
}  // namespace netcons::campaign
