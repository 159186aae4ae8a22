// Web-scale census machinery: the alias/mixture class sampler against an
// independent linear scan, delta-updated SoA tables against from-scratch
// rebuilds, the mutation journal (O(1) external deltas, overflow
// fallback), and the sparse World edge storage that serves populations
// past the dense-bitset budget.
#include "core/census_engine.hpp"

#include "campaign/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

namespace netcons {
namespace {

/// Per-class multiplicities by brute force over every alive pair of the
/// world -- deliberately independent of the engine's tables.
std::vector<std::uint64_t> linear_scan_weights(const Protocol& protocol, const World& w) {
  const std::vector<EffectiveClass> classes = effective_state_classes(protocol);
  std::vector<std::uint64_t> mult(classes.size(), 0);
  for (int v = 1; v < w.size(); ++v) {
    for (int u = 0; u < v; ++u) {
      if (!w.alive(u) || !w.alive(v)) continue;
      const StateId a = std::min(w.state(u), w.state(v));
      const StateId b = std::max(w.state(u), w.state(v));
      const bool c = w.edge(u, v);
      for (std::size_t i = 0; i < classes.size(); ++i) {
        if (classes[i].a == a && classes[i].b == b && classes[i].c == c) {
          ++mult[i];
          break;
        }
      }
    }
  }
  return mult;
}

/// Chi-squared statistic of `draws` class draws against the engine's
/// current configuration, with expectations from the independent linear
/// scan. Returns the number of support classes through `df_out`.
double chi_squared_class_draws(CensusEngine& engine, int draws, int* df_out) {
  const std::vector<std::uint64_t> expected = linear_scan_weights(engine.protocol(), engine.world());
  // The engine's delta-maintained weights must agree with the scan exactly
  // before the draws mean anything.
  EXPECT_EQ(engine.debug_class_weights(), expected);
  std::uint64_t total = 0;
  for (const std::uint64_t w : expected) total += w;
  EXPECT_GT(total, 0u);

  std::vector<std::uint64_t> observed(expected.size(), 0);
  for (int i = 0; i < draws; ++i) {
    const std::size_t ci = engine.debug_draw_class();
    EXPECT_LT(ci, observed.size()) << "draw on a quiescent configuration";
    if (ci >= observed.size()) break;
    ++observed[ci];
  }

  double chi2 = 0.0;
  int support = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (expected[i] == 0) {
      EXPECT_EQ(observed[i], 0u) << "drew a zero-weight class";
      continue;
    }
    ++support;
    const double e = static_cast<double>(draws) * static_cast<double>(expected[i]) /
                     static_cast<double>(total);
    const double d = static_cast<double>(observed[i]) - e;
    chi2 += d * d / e;
  }
  *df_out = support - 1;
  return chi2;
}

// --- alias table vs linear scan --------------------------------------------

TEST(CensusAlias, DrawsMatchLinearScanDistribution) {
  // 10^5 class draws per protocol against the exact multiplicities of a
  // mid-flight configuration. The first batch runs with a dirty log from
  // stepping (mixture + rejection paths); the single step between batches
  // re-dirties the table so the incremental path is exercised again after
  // an alias rebuild. Deterministic in the seed -- does not flake.
  for (const std::string name : {"simple-global-line", "cycle-cover", "global-star"}) {
    const ProtocolSpec spec = *campaign::make_protocol(name);
    CensusEngine engine(spec.protocol, 48, 20240807);
    // Advance to a mid-flight configuration where the class distribution is
    // non-degenerate (>= 2 populated classes). Fast protocols like
    // Cycle-Cover pass through it in O(n) effective steps, so probe in
    // small increments instead of a fixed offset.
    int support = 0;
    for (int probe = 0; probe < 200 && support < 2; ++probe) {
      engine.run(20);
      support = 0;
      for (const std::uint64_t w : linear_scan_weights(spec.protocol, engine.world())) {
        support += (w > 0);
      }
    }
    ASSERT_GE(support, 2) << name << ": never saw a multi-class configuration";

    for (const int batch : {0, 1}) {
      if (batch == 1) engine.run(1);  // re-dirty the alias bookkeeping
      int df = 0;
      const double chi2 = chi_squared_class_draws(engine, 50000, &df);
      ASSERT_GE(df, 1) << name;
      // ~p < 1e-4 bound for the observed df; generous because the draw is
      // deterministic anyway.
      EXPECT_LT(chi2, static_cast<double>(df) + 6.0 * std::sqrt(2.0 * df) + 16.0)
          << name << " batch " << batch << " df=" << df;
    }
  }
}

// --- delta updates vs from-scratch rebuild ---------------------------------

TEST(CensusDeltas, InterleavedStepsAndMutationsMatchFromScratchRebuild) {
  // Random interleaving of census-sampled steps, external edge flips,
  // external state writes, and crash faults; the delta-updated tables must
  // render byte-identically to a from-scratch rebuild of the same world.
  const ProtocolSpec spec = *campaign::make_protocol("global-star");
  const int n = 40;
  CensusEngine engine(spec.protocol, n, 77);
  std::mt19937 mix(123);
  std::vector<int> alive(n);
  for (int u = 0; u < n; ++u) alive[u] = u;

  for (int round = 0; round < 40; ++round) {
    engine.run(25);
    World& w = engine.mutable_world();
    for (int m = 0; m < 3; ++m) {
      const int u = alive[mix() % alive.size()];
      int v = alive[mix() % alive.size()];
      while (v == u) v = alive[mix() % alive.size()];
      switch (mix() % 3) {
        case 0:
          w.set_edge(u, v, !w.edge(u, v));
          break;
        case 1:
          w.set_state(u, static_cast<StateId>(mix() % spec.protocol.state_count()));
          break;
        default:
          if (alive.size() > 5 && round % 13 == 0) {
            w.kill(u);
            alive.erase(std::find(alive.begin(), alive.end(), u));
          } else {
            w.set_edge(u, v, !w.edge(u, v));
          }
          break;
      }
    }
  }

  EXPECT_GT(engine.stats().delta_updates, 0u);
  EXPECT_EQ(engine.debug_class_weights(), linear_scan_weights(spec.protocol, engine.world()));
  const std::string delta_view = engine.debug_table_snapshot();
  engine.debug_force_full_rebuild();
  EXPECT_EQ(delta_view, engine.debug_table_snapshot());
}

TEST(CensusDeltas, ExternalMutationIsSingleDeltaNotRebuild) {
  // The PR-5 behavior -- mutable_world() marks everything dirty and the
  // next step pays a full rebuild -- is gone: one external mutation is one
  // journal entry replayed as one O(1) delta.
  const ProtocolSpec spec = *campaign::make_protocol("global-star");
  const int n = 32;
  CensusEngine engine(spec.protocol, n, 31);
  const ConvergenceReport report = engine.run_until_stable();
  ASSERT_TRUE(report.stabilized);
  ASSERT_EQ(engine.effective_pair_weight(), 0u);

  int center = 0;
  for (int u = 0; u < n; ++u) {
    if (engine.world().active_degree(u) == n - 1) center = u;
  }
  const int peripheral = center == 0 ? 1 : 0;

  const std::uint64_t rebuilds_before = engine.stats().full_rebuilds;
  const std::uint64_t deltas_before = engine.stats().delta_updates;
  engine.mutable_world().set_edge(center, peripheral, false);
  // Severing one spoke leaves exactly one effective pair: re-linking it.
  EXPECT_EQ(engine.effective_pair_weight(), 1u);
  EXPECT_EQ(engine.stats().full_rebuilds, rebuilds_before);
  EXPECT_EQ(engine.stats().delta_updates, deltas_before + 1);

  // And the engine repairs the damage from the delta-updated tables.
  const ConvergenceReport again = engine.run_until_stable();
  EXPECT_TRUE(again.stabilized);
  EXPECT_TRUE(spec.target(engine.world().output_graph(spec.protocol)));
}

TEST(CensusDeltas, JournalOverflowFallsBackToOneFullRebuild) {
  const ProtocolSpec spec = *campaign::make_protocol("global-star");
  const int n = 16;
  CensusEngine engine(spec.protocol, n, 9);
  ASSERT_TRUE(engine.run_until_stable().stabilized);
  (void)engine.effective_pair_weight();  // drain the journal

  const std::uint64_t rebuilds_before = engine.stats().full_rebuilds;
  World& w = engine.mutable_world();
  int a = 1;
  int b = 2;
  if (w.active_degree(1) == n - 1) a = 3;  // two peripherals, never the center
  if (w.active_degree(2) == n - 1) b = 4;
  // One entry per flip; the journal capacity at n = 16 is 1024 entries.
  for (int i = 0; i < 1200; ++i) w.set_edge(a, b, !w.edge(a, b));

  EXPECT_TRUE(w.mutation_log()->overflowed);
  const std::uint64_t weight = engine.effective_pair_weight();
  EXPECT_EQ(engine.stats().full_rebuilds, rebuilds_before + 1);
  EXPECT_EQ(engine.debug_class_weights(), linear_scan_weights(spec.protocol, engine.world()));
  EXPECT_EQ(weight, engine.effective_pair_weight());
}

// --- sparse edge storage ---------------------------------------------------

TEST(SparseWorld, MirrorsDenseUnderRandomMutations) {
  const ProtocolSpec spec = *campaign::make_protocol("cycle-cover");
  const int n = 48;
  World dense(spec.protocol, n, World::EdgeStorage::kDense);
  World sparse(spec.protocol, n, World::EdgeStorage::kSparse);
  ASSERT_FALSE(dense.sparse_edges());
  ASSERT_TRUE(sparse.sparse_edges());

  std::mt19937 mix(99);
  std::vector<int> alive(n);
  for (int u = 0; u < n; ++u) alive[u] = u;
  for (int op = 0; op < 2000; ++op) {
    const int u = alive[mix() % alive.size()];
    int v = alive[mix() % alive.size()];
    while (v == u) v = alive[mix() % alive.size()];
    switch (mix() % 8) {
      case 0:
        dense.set_state(u, static_cast<StateId>(mix() % spec.protocol.state_count()));
        sparse.set_state(u, dense.state(u));
        break;
      case 1:
        if (alive.size() > 8) {
          dense.kill(u);
          sparse.kill(u);
          alive.erase(std::find(alive.begin(), alive.end(), u));
          break;
        }
        [[fallthrough]];
      default: {
        const bool on = (mix() % 3) != 0;  // bias toward building edges
        EXPECT_EQ(dense.set_edge(u, v, on), sparse.set_edge(u, v, on));
        break;
      }
    }
  }

  EXPECT_EQ(dense.active_edge_count(), sparse.active_edge_count());
  EXPECT_EQ(dense.alive_count(), sparse.alive_count());
  std::vector<std::pair<int, int>> dense_edges;
  std::vector<std::pair<int, int>> sparse_edges;
  dense.for_each_active_edge([&](int u, int v) { dense_edges.emplace_back(u, v); });
  sparse.for_each_active_edge([&](int u, int v) { sparse_edges.emplace_back(u, v); });
  std::sort(dense_edges.begin(), dense_edges.end());
  std::sort(sparse_edges.begin(), sparse_edges.end());
  EXPECT_EQ(dense_edges, sparse_edges);
  for (int u = 0; u < n; ++u) {
    EXPECT_EQ(dense.active_degree(u), sparse.active_degree(u));
    EXPECT_EQ(dense.edge(u, (u + 1) % n), sparse.edge(u, (u + 1) % n));
    std::vector<int> dn = dense.active_neighbors(u);
    std::vector<int> sn = sparse.active_neighbors(u);
    std::sort(dn.begin(), dn.end());
    std::sort(sn.begin(), sn.end());
    EXPECT_EQ(dn, sn) << "node " << u;
  }
  EXPECT_EQ(dense.active_graph(), sparse.active_graph());
  EXPECT_EQ(dense.output_graph(spec.protocol), sparse.output_graph(spec.protocol));
}

TEST(SparseWorld, DenseEdgeIterationInvertsPairIndexCorrectly) {
  // The dense word-scan recovers (u, v) from the triangular bit index via
  // a sqrt inversion; probe pairs across the index range, including the
  // extremes of each row.
  const ProtocolSpec spec = *campaign::make_protocol("cycle-cover");
  const int n = 2000;
  World w(spec.protocol, n, World::EdgeStorage::kDense);
  const std::vector<std::pair<int, int>> probes = {
      {0, 1}, {0, 2}, {1, 2}, {0, n - 1}, {n - 2, n - 1}, {500, 501}, {0, 1023}, {1023, 1999}};
  for (const auto& [u, v] : probes) w.set_edge(u, v, true);
  std::vector<std::pair<int, int>> seen;
  w.for_each_active_edge([&](int u, int v) { seen.emplace_back(u, v); });
  std::sort(seen.begin(), seen.end());
  std::vector<std::pair<int, int>> want = probes;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(seen, want);
}

TEST(SparseWorld, AutoStorageCrossesOverAtTheDenseLimit) {
  const ProtocolSpec spec = *campaign::make_protocol("cycle-cover");
  EXPECT_FALSE(World(spec.protocol, 64).sparse_edges());
  EXPECT_TRUE(World(spec.protocol, World::kDenseNodeLimit + 1).sparse_edges());
}

TEST(SparseWorld, CensusEngineStabilizesCycleCoverPastTheDenseLimit) {
  // n just past the bitset budget: the engine's world must come up sparse
  // and still stabilize (cycle cover: every node ends with degree 2, so
  // the active graph carries exactly n edges).
  const ProtocolSpec spec = *campaign::make_protocol("cycle-cover");
  const int n = World::kDenseNodeLimit + 1;
  CensusEngine engine(spec.protocol, n, 2026);
  ASSERT_TRUE(engine.world().sparse_edges());
  const ConvergenceReport report = engine.run_until_stable();
  ASSERT_TRUE(report.stabilized);
  EXPECT_TRUE(report.quiescent);
  EXPECT_EQ(engine.world().active_edge_count(), static_cast<std::int64_t>(n));
  for (int u = 0; u < n; ++u) EXPECT_EQ(engine.world().active_degree(u), 2);
}

}  // namespace
}  // namespace netcons
