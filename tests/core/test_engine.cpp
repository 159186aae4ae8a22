// The pluggable execution-engine API: CensusEngine equivalence with the
// naive reference, its exactness boundary, the protocol-derived
// effectiveness table, and the Protocol::resolve swap-symmetry edge cases
// the census sampler depends on.
#include "core/census_engine.hpp"

#include "analysis/distribution.hpp"
#include "campaign/registry.hpp"
#include "faults/fault_session.hpp"
#include "sched/schedulers.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>

namespace netcons {
namespace {

Protocol star_protocol() {
  ProtocolBuilder b("star");
  const StateId c = b.add_state("c");
  const StateId p = b.add_state("p");
  b.set_initial(c);
  b.add_rule(c, c, false, c, p, true);
  b.add_rule(p, p, true, p, p, false);
  b.add_rule(c, p, false, c, p, true);
  return b.build();
}

// --- effectiveness table ---------------------------------------------------

TEST(EffectiveStateClasses, MatchesIneffectiveOnEveryTripleOfAllProtocols) {
  // The census sampler's support must be exactly the complement of
  // Protocol::ineffective over unordered (a, b, c) triples -- for every
  // registered protocol, including the parameterized families.
  for (const std::string& name : campaign::protocol_names()) {
    const ProtocolSpec spec = *campaign::make_protocol(name);
    const Protocol& protocol = spec.protocol;
    std::set<std::tuple<StateId, StateId, bool>> classes;
    for (const EffectiveClass& cls : effective_state_classes(protocol)) {
      EXPECT_LE(cls.a, cls.b) << name << ": classes must be orientation-normalized";
      const bool inserted = classes.insert({cls.a, cls.b, cls.c}).second;
      EXPECT_TRUE(inserted) << name << ": duplicate class";
    }
    const int q = protocol.state_count();
    for (int a = 0; a < q; ++a) {
      for (int b = 0; b < q; ++b) {
        for (const bool c : {false, true}) {
          const auto sa = static_cast<StateId>(a);
          const auto sb = static_cast<StateId>(b);
          const bool in_table = classes.count({std::min(sa, sb), std::max(sa, sb), c}) != 0;
          EXPECT_EQ(in_table, !protocol.ineffective(sa, sb, c))
              << name << " (" << protocol.state_name(sa) << ", " << protocol.state_name(sb)
              << ", " << c << ")";
        }
      }
    }
  }
}

// --- resolve swap-symmetry edge cases --------------------------------------

TEST(ProtocolResolve, BothOrientationsDefinedAndAgreeing) {
  // When both orientations of (a, b, c) are defined (allowed only if they
  // agree under the swap symmetry), each direction resolves to its own
  // directly-stored entry -- neither is reported as swapped -- and the two
  // entries are swap images of each other.
  ProtocolBuilder b("both");
  const StateId x = b.add_state("x");
  const StateId y = b.add_state("y");
  b.set_initial(x);
  b.add_rule(x, y, false, x, x, true);
  b.add_rule(y, x, false, x, x, true);  // the swap image (outcome symmetric)
  const Protocol p = b.build();

  const auto direct = p.resolve(x, y, false);
  ASSERT_NE(direct.rule, nullptr);
  EXPECT_FALSE(direct.swapped);
  EXPECT_EQ(direct.rule->primary, (Outcome{x, x, true}));

  const auto reverse = p.resolve(y, x, false);
  ASSERT_NE(reverse.rule, nullptr);
  EXPECT_FALSE(reverse.swapped);  // stored directly, no swap needed
  EXPECT_EQ(reverse.rule->primary, (Outcome{x, x, true}));

  EXPECT_FALSE(p.ineffective(x, y, false));
  EXPECT_FALSE(p.ineffective(y, x, false));
}

TEST(ProtocolResolve, CoinRulesResolveSwapped) {
  // A PREL coin rule stored at (a, b, c) must be found from the (b, a, c)
  // orientation with swapped = true and both branches intact.
  ProtocolBuilder b("coin");
  const StateId a = b.add_state("a");
  const StateId z = b.add_state("z");
  b.set_initial(a);
  b.add_coin_rule(a, z, false, Outcome{a, a, true}, Outcome{z, z, false});
  b.add_rule(a, a, false, a, z, true);  // make the protocol minimally live
  const Protocol p = b.build();

  const auto direct = p.resolve(a, z, false);
  ASSERT_NE(direct.rule, nullptr);
  EXPECT_FALSE(direct.swapped);
  EXPECT_TRUE(direct.rule->coin);

  const auto swapped = p.resolve(z, a, false);
  ASSERT_NE(swapped.rule, nullptr);
  EXPECT_TRUE(swapped.swapped);
  EXPECT_TRUE(swapped.rule->coin);
  EXPECT_EQ(swapped.rule, direct.rule);  // same table entry, role-swapped
  EXPECT_EQ(swapped.rule->primary, (Outcome{a, a, true}));
  EXPECT_EQ(swapped.rule->secondary, (Outcome{z, z, false}));

  // The effectiveness table sees exactly one normalized class for the pair.
  int matches = 0;
  for (const EffectiveClass& cls : effective_state_classes(p)) {
    if (cls.a == std::min(a, z) && cls.b == std::max(a, z) && !cls.c) ++matches;
  }
  EXPECT_EQ(matches, 1);
}

// --- census engine: equivalence with the naive reference -------------------

TEST(CensusEngine, StabilizesRegisteredProtocolsToTheTarget) {
  for (const std::string name : {"global-star", "cycle-cover", "simple-global-line"}) {
    const ProtocolSpec spec = *campaign::make_protocol(name);
    CensusEngine engine(spec.protocol, 16, 99);
    const ConvergenceReport report = engine.run_until_stable();
    EXPECT_TRUE(report.stabilized) << name;
    EXPECT_TRUE(report.quiescent) << name;
    EXPECT_TRUE(spec.target(engine.world().output_graph(spec.protocol))) << name;
    EXPECT_EQ(engine.effective_pair_weight(), 0u) << name;
    EXPECT_TRUE(engine.is_quiescent()) << name;  // O(n^2) scan agrees with W == 0
  }
}

TEST(CensusEngine, ConvergenceStepDistributionMatchesNaive) {
  // Two-sample KS over convergence steps, 300 trials per engine on
  // Global-Star at n = 16. The engines consume their seeds differently, so
  // the samples are independent draws from (if the census argument holds)
  // the same distribution. Threshold 0.12 is the alpha ~ 0.027 critical
  // value for 300 vs 300 (c = 0.12 / sqrt(2/300) = 1.47); the draw is
  // deterministic in the seeds, so this does not flake.
  const ProtocolSpec spec = *campaign::make_protocol("global-star");
  const int trials = 300;
  analysis::ValueDistribution naive_dist;
  analysis::ValueDistribution census_dist;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed = trial_seed(2024, static_cast<std::uint64_t>(t));
    Simulator naive(spec.protocol, 16, seed);
    const ConvergenceReport naive_report = naive.run_until_stable();
    ASSERT_TRUE(naive_report.stabilized);
    naive_dist.add(naive_report.convergence_step);

    CensusEngine census(spec.protocol, 16, seed);
    const ConvergenceReport census_report = census.run_until_stable();
    ASSERT_TRUE(census_report.stabilized);
    census_dist.add(census_report.convergence_step);
  }
  EXPECT_LT(analysis::ks_distance(naive_dist, census_dist), 0.12);
}

TEST(CensusEngine, StepAccountingSkipsIneffectiveInteractions) {
  CensusEngine engine(star_protocol(), 8, 7);
  ASSERT_TRUE(engine.step());  // the initial all-c configuration is all-effective
  EXPECT_EQ(engine.effective_steps(), 1u);
  EXPECT_GE(engine.steps(), 1u);
  const ConvergenceReport report = engine.run_until_stable();
  EXPECT_TRUE(report.stabilized);
  // Every executed interaction was effective; the clock counts the skips.
  EXPECT_LE(engine.effective_steps(), engine.steps());
  // Quiescent now: a step is a wasted interaction, exactly one tick.
  const std::uint64_t before = engine.steps();
  const std::uint64_t effective_before = engine.effective_steps();
  EXPECT_FALSE(engine.step());
  EXPECT_EQ(engine.steps(), before + 1);
  EXPECT_EQ(engine.effective_steps(), effective_before);
}

TEST(CensusEngine, RunAdvancesExactlyTheRequestedSteps) {
  CensusEngine engine(star_protocol(), 12, 21);
  engine.run(10'000);
  EXPECT_EQ(engine.steps(), 10'000u);
  Simulator naive(star_protocol(), 12, 21);
  naive.run(10'000);
  EXPECT_EQ(naive.steps(), 10'000u);
  // Both reach the stable star within that budget (n = 12 stabilizes in
  // far fewer steps with overwhelming probability at these seeds).
  EXPECT_TRUE(engine.is_quiescent());
  EXPECT_TRUE(naive.is_quiescent());
}

TEST(CensusEngine, RunSaturatesAHugeCountInsteadOfWrapping) {
  // steps() + count would wrap past 2^64 here; the run target saturates,
  // so the engine runs to quiescence and burns the rest of the clock, as
  // Simulator::run would step for step.
  const ProtocolSpec spec = *campaign::make_protocol("cycle-cover");
  CensusEngine engine(spec.protocol, 16, 5);
  engine.run(10);
  ASSERT_EQ(engine.steps(), 10u);
  engine.run(std::numeric_limits<std::uint64_t>::max() - 5);
  EXPECT_TRUE(engine.is_quiescent());
  EXPECT_EQ(engine.steps(), std::numeric_limits<std::uint64_t>::max());
}

TEST(CensusEngine, RunUntilMatchesPredicateSemantics) {
  // The predicate can only change on effective steps, and the returned
  // index is the paper's step clock at the first step where it held.
  const Protocol star = star_protocol();
  CensusEngine engine(star, 10, 5);
  const auto done = [](const World& w) { return w.census(1) >= 5; };  // 5 peripherals
  const auto at = engine.run_until(done, 1'000'000);
  ASSERT_TRUE(at.has_value());
  EXPECT_EQ(*at, engine.steps());
  EXPECT_GE(engine.world().census(1), 5);
  // Timeout path: an impossible predicate runs the clock to the budget.
  CensusEngine stuck(star, 10, 5);
  const auto never = stuck.run_until([](const World&) { return false; }, 5'000);
  EXPECT_FALSE(never.has_value());
  EXPECT_EQ(stuck.steps(), 5'000u);
}

// --- exactness boundary ----------------------------------------------------

namespace {

/// A scheduler with no weight model: plays pairs in a fixed rotation, so
/// its law is history-dependent and inexpressible as static weights.
class RotatingScheduler final : public Scheduler {
 public:
  [[nodiscard]] Encounter next(Rng&, int n) override {
    const std::uint64_t pairs = World::pair_count(n);
    const std::uint64_t i = cursor_++ % pairs;
    int v = 1;
    while (World::pair_count(v + 1) <= i) ++v;
    return {static_cast<int>(i - World::pair_count(v)), v};
  }
  void reset() override { cursor_ = 0; }

 private:
  std::uint64_t cursor_ = 0;
};

}  // namespace

TEST(CensusEngine, ModellessSchedulerIsRejected) {
  // A custom scheduler that exports no weight model has no census law; the
  // census engine refuses it at construction and names the engine that can
  // run it, which still does.
  const Protocol star = star_protocol();
  try {
    CensusEngine census(star, 12, 77, std::make_unique<RotatingScheduler>());
    FAIL() << "a model-less scheduler was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("naive"), std::string::npos) << e.what();
  }
  Simulator naive(star, 12, 77, std::make_unique<RotatingScheduler>());
  naive.run(500);
  EXPECT_EQ(naive.steps(), 500u);
  EXPECT_GT(naive.effective_steps(), 0u);
}

TEST(CensusEngine, ScheduledBurstFiresAtTheSameStepOnBothEngines) {
  // A burst "at step 1000" fires before the 1000th interaction, at clock
  // reading 999, on either engine; the census engine keeps sampling.
  const faults::FaultPlan plan = faults::parse_fault_plan("edge-burst:f=1:at=1000");
  Simulator naive(star_protocol(), 10, 13);
  CensusEngine census(star_protocol(), 10, 13);
  for (Engine* engine : {static_cast<Engine*>(&naive), static_cast<Engine*>(&census)}) {
    faults::FaultSession session(plan, 13);
    const ConvergenceReport report = faults::run_until_stable_with_faults(*engine, session);
    EXPECT_TRUE(report.stabilized) << engine->engine_name();
    EXPECT_EQ(report.faults_injected, 1u) << engine->engine_name();
    EXPECT_EQ(report.last_fault_step, 999u) << engine->engine_name();
  }
  EXPECT_GT(census.stats().effective_samples, 0u);

  // Process trials run the same driver: the burst fires at 999 there too.
  CensusEngine process(star_protocol(), 10, 13);
  faults::FaultSession session(plan, 13);
  Engine::StabilityOptions options;
  options.max_steps = 5000;
  const ConvergenceReport report = faults::run_until_stable_with_faults(
      process, session, options, [](const World&) { return false; });
  EXPECT_FALSE(report.stabilized);
  EXPECT_EQ(report.steps_executed, 5000u);
  EXPECT_EQ(report.last_fault_step, 999u);
}

TEST(CensusEngine, ExternalWorldMutationInvalidatesTheTables) {
  // Stabilize a star, then delete a center-peripheral edge behind the
  // engine's back: (c, p, 0) -> (c, p, 1) becomes effective again and the
  // engine must notice (rebuild) and repair it.
  CensusEngine engine(star_protocol(), 10, 31);
  ASSERT_TRUE(engine.run_until_stable().stabilized);
  ASSERT_EQ(engine.effective_pair_weight(), 0u);
  const std::vector<int> centers = engine.world().nodes_where([](StateId s) { return s == 0; });
  ASSERT_EQ(centers.size(), 1u);
  int peripheral = centers[0] == 0 ? 1 : 0;
  engine.mutable_world().set_edge(centers[0], peripheral, false);
  EXPECT_EQ(engine.effective_pair_weight(), 1u);  // exactly the broken spoke
  const ConvergenceReport repaired = engine.run_until_stable();
  EXPECT_TRUE(repaired.stabilized);
  EXPECT_TRUE(engine.world().edge(centers[0], peripheral));
}

TEST(CensusEngine, QuiescenceAfterAnOutsideEditCostsOneRebuildNotAScan) {
  // run_until_stable checks quiescence through the census tables: an edit
  // that leaves the world quiescent costs exactly one full rebuild, and the
  // run ends at once without moving the clock.
  CensusEngine engine(star_protocol(), 10, 31);
  ASSERT_TRUE(engine.run_until_stable().quiescent);
  const std::vector<int> centers = engine.world().nodes_where([](StateId s) { return s == 0; });
  ASSERT_EQ(centers.size(), 1u);
  const int peripheral = centers[0] == 0 ? 1 : 0;
  engine.mutable_world().set_edge(centers[0], peripheral, false);
  engine.mutable_world().set_edge(centers[0], peripheral, true);  // the same star again
  const std::uint64_t rebuilds = engine.stats().full_rebuilds;
  const std::uint64_t steps = engine.steps();
  const ConvergenceReport report = engine.run_until_stable();
  EXPECT_TRUE(report.quiescent);
  EXPECT_EQ(engine.stats().full_rebuilds, rebuilds + 1);
  EXPECT_EQ(engine.steps(), steps);
}

TEST(CensusEngine, CertificateProtocolsStabilizeUnderCensusSampling) {
  // 2RC's stable configurations are not quiescent (the leaders keep
  // swapping), so stability comes from the certificate while effective
  // steps keep flowing -- the census fast path must still terminate.
  const ProtocolSpec spec = *campaign::make_protocol("2rc");
  CensusEngine engine(spec.protocol, 12, 17);
  Engine::StabilityOptions options;
  if (spec.max_steps) options.max_steps = spec.max_steps(12);
  options.certificate = spec.certificate;
  const ConvergenceReport report = engine.run_until_stable(options);
  EXPECT_TRUE(report.stabilized);
  EXPECT_TRUE(report.certified);
  EXPECT_TRUE(spec.target(engine.world().output_graph(spec.protocol)));
}

}  // namespace
}  // namespace netcons
