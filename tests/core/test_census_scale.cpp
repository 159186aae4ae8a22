// Web-scale census machinery: the Fenwick-tree class sampler against an
// independent linear scan, incrementally updated SoA tables against
// from-scratch rebuilds, the World::version() sync rule (outside mutations
// and fault events cost one rebuild), the incidence lists kept only for
// nodes in non-terminal states, and the World pair-set edge storage (both
// key widths) that serves populations past the dense-bitset limit.
#include "core/census_engine.hpp"

#include "campaign/registry.hpp"
#include "faults/fault_session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
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
  const std::vector<std::uint64_t> expected =
      linear_scan_weights(engine.protocol(), engine.world());
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

/// Run until `count` more effective interactions have executed.
void run_effective(CensusEngine& engine, std::uint64_t count) {
  const std::uint64_t target = engine.effective_steps() + count;
  (void)engine.run_until(
      [&engine, target](const World&) { return engine.effective_steps() >= target; },
      std::numeric_limits<std::uint64_t>::max());
}

// --- class sampler vs linear scan ------------------------------------------

TEST(CensusAlias, DrawsMatchLinearScanDistribution) {
  // 10^5 class draws per protocol against the exact multiplicities of a
  // mid-flight configuration. The first batch draws from a tree updated
  // incrementally by stepping; the single step between batches moves it
  // again. Deterministic in the seed -- does not flake.
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
      if (batch == 1) engine.run(1);  // move the tree between batches
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

TEST(CensusAlias, LargeClassTablesMatchLinearScanDistribution) {
  // Class tables far past the paper's small protocols: kRC with k = 8 and
  // c-Cliques with c = 8 give Fenwick trees of 246 and 97 leaves (neither a
  // power of two, so the descent must skip nodes past the end). Each batch
  // of draws follows a stretch of effective steps, and across the batches
  // class weights must both rise and fall, so the draws check the tree
  // after incremental updates in both directions.
  struct Case {
    const char* name;
    campaign::ProtocolParams params;
    std::size_t classes;
  };
  for (const Case& tc : {Case{"krc", {.k = 8}, 246}, Case{"c-cliques", {.c = 8}, 97}}) {
    const ProtocolSpec spec = *campaign::make_protocol(tc.name, tc.params);
    CensusEngine engine(spec.protocol, 64, 20241019);
    ASSERT_EQ(engine.debug_classes().size(), tc.classes) << tc.name;
    bool rose = false;
    bool fell = false;
    for (int batch = 0; batch < 4; ++batch) {
      const std::vector<std::uint64_t> before = engine.debug_class_weights();
      run_effective(engine, 40);
      const std::vector<std::uint64_t> after = engine.debug_class_weights();
      for (std::size_t i = 0; i < after.size(); ++i) {
        rose = rose || after[i] > before[i];
        fell = fell || after[i] < before[i];
      }
      int df = 0;
      const double chi2 = chi_squared_class_draws(engine, 50000, &df);
      ASSERT_GE(df, 1) << tc.name << " batch " << batch;
      EXPECT_LT(chi2, static_cast<double>(df) + 6.0 * std::sqrt(2.0 * df) + 16.0)
          << tc.name << " batch " << batch << " df=" << df;
    }
    EXPECT_TRUE(rose && fell) << tc.name << ": the batches never moved weights both ways";
  }
}

// --- incremental updates vs from-scratch rebuild ---------------------------

TEST(CensusDeltas, InterleavedStepsAndMutationsMatchFromScratchRebuild) {
  // Random interleaving of census-sampled steps, external edge flips,
  // external state writes, and crash faults through one World& held across
  // run() calls; the incrementally updated tables must render
  // byte-identically to a from-scratch rebuild of the same world.
  const ProtocolSpec spec = *campaign::make_protocol("global-star");
  const int n = 40;
  CensusEngine engine(spec.protocol, n, 77);
  std::mt19937 mix(123);
  std::vector<int> alive(n);
  for (int u = 0; u < n; ++u) alive[u] = u;

  World& w = engine.mutable_world();
  for (int round = 0; round < 40; ++round) {
    engine.run(25);
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

  EXPECT_EQ(engine.debug_class_weights(), linear_scan_weights(spec.protocol, engine.world()));
  const std::string delta_view = engine.debug_table_snapshot();
  engine.debug_force_full_rebuild();
  EXPECT_EQ(delta_view, engine.debug_table_snapshot());
}

TEST(CensusDeltas, EveryFaultKindCostsOneRebuildPerFiring) {
  // Faults are engine events: each firing moves the world past the tables
  // once, costing exactly one full rebuild on the next sampled step (the
  // first rebuild builds the tables).
  const ProtocolSpec spec = *campaign::make_protocol("global-star");
  for (const char* spec_text :
       {"crash:k=2", "edge-burst:f=0.3", "reset:k=2", "crash:k=1:at=500:every=700:times=3",
        "edge-burst:f=0.2:at=300:every=900:times=4", "edge-rate:p=0.002:for=4000"}) {
    SCOPED_TRACE(spec_text);
    CensusEngine engine(spec.protocol, 40, 5);
    faults::FaultSession session(faults::parse_fault_plan(spec_text), 5);
    const ConvergenceReport report = faults::run_until_stable_with_faults(engine, session);
    EXPECT_TRUE(report.stabilized);
    EXPECT_GT(report.faults_injected, 0u);
    EXPECT_EQ(engine.stats().full_rebuilds, 1 + report.faults_injected);
    EXPECT_GT(engine.stats().effective_samples, 0u);
    const std::string resumed_view = engine.debug_table_snapshot();
    EXPECT_EQ(engine.stats().full_rebuilds, 1 + report.faults_injected);
    engine.debug_force_full_rebuild();
    EXPECT_EQ(resumed_view, engine.debug_table_snapshot());
  }
}

// --- terminal states and incidence lists ----------------------------------

/// Terminal states by brute force: a two-node naive simulator is set to
/// every encounter (a, b, c) 64 times over, so coin rules and the
/// same-state swap show each of their outcomes; a state is terminal iff no
/// executed step ever moved a node out of it.
std::vector<StateId> brute_force_terminal_states(const Protocol& protocol) {
  const int q = protocol.state_count();
  std::vector<bool> left(static_cast<std::size_t>(q), false);
  Simulator sim(protocol, 2, 31337);
  World& w = sim.mutable_world();
  for (int a = 0; a < q; ++a) {
    for (int b = 0; b < q; ++b) {
      for (const bool c : {false, true}) {
        for (int rep = 0; rep < 64; ++rep) {
          w.set_state(0, static_cast<StateId>(a));
          w.set_state(1, static_cast<StateId>(b));
          w.set_edge(0, 1, c);
          if (!sim.step()) continue;
          if (w.state(0) != a) left[static_cast<std::size_t>(a)] = true;
          if (w.state(1) != b) left[static_cast<std::size_t>(b)] = true;
        }
      }
    }
  }
  std::vector<StateId> out;
  for (int s = 0; s < q; ++s) {
    if (!left[static_cast<std::size_t>(s)]) out.push_back(static_cast<StateId>(s));
  }
  return out;
}

TEST(CensusIncidence, TerminalStatesMatchABruteForceOracle) {
  // Every other registered protocol has none.
  const std::map<std::string, std::set<std::string>> expected = {
      {"cycle-cover", {"q2"}},     {"degree-doubling", {"a3"}},
      {"global-star", {"p"}},      {"partition-udm", {"qu", "qm"}},
      {"preelected-line", {"q1"}}, {"spanning-net", {"b"}}};
  for (const std::string& name : campaign::protocol_names()) {
    SCOPED_TRACE(name);
    const Protocol protocol = campaign::make_protocol(name)->protocol;
    const std::vector<StateId> terminal = terminal_states(protocol);
    EXPECT_EQ(terminal, brute_force_terminal_states(protocol));
    std::set<std::string> names;
    for (const StateId t : terminal) names.insert(protocol.state_name(t));
    const auto it = expected.find(name);
    EXPECT_EQ(names, it == expected.end() ? std::set<std::string>{} : it->second);
  }
  EXPECT_EQ(campaign::protocol_names().size(), 13u);
}

std::unique_ptr<Scheduler> scheduler_from_spec(const std::string& spec) {
  const auto option = campaign::make_scheduler(spec);
  EXPECT_TRUE(option.has_value()) << spec;
  return option->make ? option->make() : nullptr;
}

TEST(CensusIncidence, ListsTrackExactlyTheNonTerminalNodesWhileStepping) {
  // Nodes in terminal states keep no incidence list; everyone else lists
  // exactly their incident slots, checked every 16 effective steps under
  // the uniform law and under proximity (whose endgame runs the listed
  // and dense regimes).
  for (const char* name : {"global-star", "cycle-cover", "spanning-net", "simple-global-line"}) {
    for (const char* sched : {"uniform", "proximity:alpha=2:r=0.3"}) {
      SCOPED_TRACE(std::string(name) + " / " + sched);
      const ProtocolSpec spec = *campaign::make_protocol(name);
      CensusEngine engine(spec.protocol, 40, 4242, scheduler_from_spec(sched));
      ASSERT_EQ(engine.debug_incidence_violation(), "");
      for (int chunk = 0; chunk < 400 && engine.effective_pair_weight() > 0; ++chunk) {
        run_effective(engine, 16);
        ASSERT_EQ(engine.debug_incidence_violation(), "") << "after chunk " << chunk;
      }
      EXPECT_EQ(engine.stats().full_rebuilds, 1u);
    }
  }
}

TEST(CensusIncidence, FaultRebuildRestoresListsForNodesLeavingTerminalStates) {
  // A reset moves terminal Global-Star peripherals (p) back to c, which
  // only a rebuild can follow: after each fault run, and after one more
  // outside reset of a p node with edges, the lists hold again.
  const ProtocolSpec spec = *campaign::make_protocol("global-star");
  const StateId c = *spec.protocol.state_by_name("c");
  for (const char* plan : {"reset:k=3", "crash:k=1:at=400:every=600:times=3"}) {
    SCOPED_TRACE(plan);
    CensusEngine engine(spec.protocol, 40, 8);
    faults::FaultSession session(faults::parse_fault_plan(plan), 8);
    const ConvergenceReport report = faults::run_until_stable_with_faults(engine, session);
    ASSERT_TRUE(report.stabilized);
    EXPECT_EQ(engine.stats().full_rebuilds, 1 + report.faults_injected);
    EXPECT_EQ(engine.debug_incidence_violation(), "");

    World& w = engine.mutable_world();
    int peripheral = -1;
    for (int u = 0; u < w.size() && peripheral < 0; ++u) {
      if (w.alive(u) && w.state(u) != c && w.active_degree(u) > 0) peripheral = u;
    }
    ASSERT_GE(peripheral, 0);
    w.set_state(peripheral, c);
    EXPECT_EQ(engine.debug_incidence_violation(), "");
    EXPECT_EQ(engine.stats().full_rebuilds, 2 + report.faults_injected);
    run_effective(engine, 8);
    EXPECT_EQ(engine.debug_incidence_violation(), "");
  }
}

TEST(CensusIncidence, BucketScanLookupsKeepTablesEqualToARebuild) {
  // Global-Star under proximity at n = 32 reaches the dense regime while
  // (p, p, 1) edges remain, whose endpoints are both terminal: their slot
  // is found by a bucket scan. After every step the tables must render
  // like a fresh rebuild, with no rebuild besides the forced ones.
  const ProtocolSpec spec = *campaign::make_protocol("global-star");
  std::uint64_t scans = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    CensusEngine engine(spec.protocol, 32, seed, scheduler_from_spec("proximity:alpha=2:r=0.3"));
    std::uint64_t forced = 0;
    while (engine.effective_pair_weight() > 0) {
      ASSERT_TRUE(engine.step());
      const std::string stepped = engine.debug_table_snapshot();
      ASSERT_EQ(engine.debug_incidence_violation(), "");
      ASSERT_EQ(engine.stats().full_rebuilds, 1 + forced) << "seed " << seed;
      engine.debug_force_full_rebuild();
      ++forced;
      ASSERT_EQ(stepped, engine.debug_table_snapshot()) << "seed " << seed;
    }
    scans += engine.stats().slot_scans;
  }
  EXPECT_GT(scans, 0u);
}

// --- sparse edge storage ---------------------------------------------------

/// Churn, then random set_edge / kill on `nodes` (indices into a World of
/// size n), checked against a std::set reference after every mutation
/// batch: edge, active_degree, active_neighbors and for_each_active_edge
/// must agree.
void check_world_against_reference(int n, const std::vector<int>& nodes, bool sparse) {
  const ProtocolSpec spec = *campaign::make_protocol("cycle-cover");
  World w(spec.protocol, n);
  ASSERT_EQ(w.sparse_edges(), sparse);

  std::set<std::pair<int, int>> ref;  // (u, v), u < v
  std::vector<int> alive = nodes;
  const auto check = [&] {
    EXPECT_EQ(w.active_edge_count(), static_cast<std::int64_t>(ref.size()));
    std::set<std::pair<int, int>> seen;
    w.for_each_active_edge([&](int u, int v) {
      EXPECT_LT(u, v);
      EXPECT_TRUE(seen.emplace(u, v).second) << "edge visited twice";
    });
    EXPECT_EQ(seen, ref);
    for (const int u : nodes) {
      std::vector<int> want;
      for (const auto& [a, b] : ref) {
        if (a == u) want.push_back(b);
        if (b == u) want.push_back(a);
      }
      std::sort(want.begin(), want.end());
      EXPECT_EQ(w.active_neighbors(u), want) << "node " << u;
      EXPECT_EQ(w.active_degree(u), static_cast<int>(want.size())) << "node " << u;
      for (const int v : nodes) {
        if (v == u) continue;
        EXPECT_EQ(w.edge(u, v), ref.count({std::min(u, v), std::max(u, v)}) == 1)
            << "pair " << u << "," << v;
      }
    }
  };
  const auto kill = [&](int u) {
    w.kill(u);
    std::erase_if(ref, [u](const std::pair<int, int>& e) { return e.first == u || e.second == u; });
    alive.erase(std::find(alive.begin(), alive.end(), u));
  };

  std::mt19937 mix(99);
  // Churn: every pair of the subset (2016 keys for 64 nodes, so the pair
  // set doubles from 16 to 4096 slots), a hub killed at full degree, then
  // deletion back to empty in shuffled order -- each erase backward-shifts
  // through probe runs, including runs that wrap past the last slot.
  std::vector<std::pair<int, int>> pairs;
  for (std::size_t i = 0; i < alive.size(); ++i) {
    for (std::size_t j = i + 1; j < alive.size(); ++j) pairs.emplace_back(alive[i], alive[j]);
  }
  std::shuffle(pairs.begin(), pairs.end(), mix);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_TRUE(w.set_edge(pairs[i].first, pairs[i].second, true));
    ref.insert(pairs[i]);
    if (i % 256 == 255) check();
  }
  check();
  const int hub = alive[alive.size() / 2];
  kill(hub);
  check();
  std::shuffle(pairs.begin(), pairs.end(), mix);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [u, v] = pairs[i];
    if (u == hub || v == hub) continue;
    EXPECT_TRUE(w.set_edge(u, v, false));
    ref.erase(pairs[i]);
    if (i % 256 == 255) check();
  }
  check();
  EXPECT_EQ(w.active_edge_count(), 0);

  for (int op = 0; op < 3000; ++op) {
    const int u = alive[mix() % alive.size()];
    int v = alive[mix() % alive.size()];
    while (v == u) v = alive[mix() % alive.size()];
    if (mix() % 64 == 0 && alive.size() > 8) {
      kill(u);
    } else {
      const bool on = (mix() % 3) != 0;  // bias toward building edges
      const std::pair<int, int> key{std::min(u, v), std::max(u, v)};
      const bool changed = on ? ref.insert(key).second : ref.erase(key) == 1;
      EXPECT_EQ(w.set_edge(u, v, on), changed);
    }
    if (op % 500 == 499) check();
  }
}

TEST(SparseWorld, DenseStorageMatchesReferenceUnderRandomMutations) {
  std::vector<int> nodes(64);
  for (int i = 0; i < 64; ++i) nodes[static_cast<std::size_t>(i)] = i;
  check_world_against_reference(64, nodes, /*sparse=*/false);
}

TEST(SparseWorld, SparseStorageMatchesReferenceUnderRandomMutations) {
  // Mutations on a 64-node subset spread over the whole id range, so
  // pair_index keys span the whole key range too: at both key widths, the
  // second past 2^32 (the widest narrow population is 92,682).
  for (const int n : {World::kDenseNodeLimit + 1, 92683}) {
    SCOPED_TRACE(n);
    std::vector<int> nodes(64);
    for (int i = 0; i < 64; ++i) nodes[static_cast<std::size_t>(i)] = i * (n - 1) / 63;
    check_world_against_reference(n, nodes, /*sparse=*/true);
  }
}

TEST(SparseWorld, ForEachActiveEdgeVisitsPairIndexOrderOnBothStorages) {
  // Callers that draw from the edge list (fault victims) or rebuild from it
  // (census tables) see the same order whichever storage n selects, at
  // every n (the 2^15 + 1 leg is past every earlier storage switch).
  const ProtocolSpec spec = *campaign::make_protocol("cycle-cover");
  for (const int n : {512, World::kDenseNodeLimit + 1, (1 << 15) + 1}) {
    World w(spec.protocol, n);
    std::mt19937 mix(7);
    std::vector<std::size_t> want;
    for (int i = 0; i < 300; ++i) {
      const int u = static_cast<int>(mix() % static_cast<unsigned>(n));
      const int v = static_cast<int>(mix() % static_cast<unsigned>(n));
      if (u != v && w.set_edge(u, v, true)) want.push_back(World::pair_index(u, v));
    }
    std::sort(want.begin(), want.end());
    std::vector<std::size_t> seen;
    w.for_each_active_edge([&](int u, int v) { seen.push_back(World::pair_index(u, v)); });
    EXPECT_EQ(seen, want) << "n = " << n;
  }
}

TEST(SparseWorld, DenseEdgeIterationInvertsPairIndexCorrectly) {
  // The dense word-scan recovers (u, v) from the triangular bit index via
  // a sqrt inversion; probe pairs across the index range, including the
  // extremes of each row.
  const ProtocolSpec spec = *campaign::make_protocol("cycle-cover");
  const int n = 2000;
  World w(spec.protocol, n);
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
  static_assert(World::kDenseNodeLimit == 1 << 13);
  EXPECT_FALSE(World(spec.protocol, 64).sparse_edges());
  EXPECT_FALSE(World(spec.protocol, World::kDenseNodeLimit).sparse_edges());
  EXPECT_TRUE(World(spec.protocol, World::kDenseNodeLimit + 1).sparse_edges());
  // Pair-set keys are 32-bit while every pair index fits below ~0u.
  EXPECT_EQ(World(spec.protocol, World::kDenseNodeLimit).pair_key_bits(), 0);
  EXPECT_EQ(World(spec.protocol, World::kDenseNodeLimit + 1).pair_key_bits(), 32);
  EXPECT_EQ(World(spec.protocol, 92682).pair_key_bits(), 32);
  EXPECT_EQ(World(spec.protocol, 92683).pair_key_bits(), 64);
  EXPECT_TRUE(World::narrow_pair_keys(92682));
  EXPECT_FALSE(World::narrow_pair_keys(92683));
}

TEST(SparseWorld, CensusEngineStabilizesCycleCoverPastTheDenseLimit) {
  // n just past the bitset limit: the engine's world must come up sparse
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
