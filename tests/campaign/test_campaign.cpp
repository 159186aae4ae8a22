#include "campaign/campaign.hpp"

#include "campaign/job_queue.hpp"
#include "campaign/registry.hpp"
#include "campaign/result_sink.hpp"
#include "campaign/seeds.hpp"
#include "campaign/spec_cli.hpp"
#include "campaign/trial_record.hpp"
#include "protocols/protocols.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace netcons::campaign {
namespace {

CampaignSpec small_mixed_campaign() {
  CampaignSpec spec;
  spec.units.push_back(Unit::protocol("cycle-cover", protocols::cycle_cover()));
  spec.units.push_back(Unit::process(one_way_epidemic()));
  spec.ns = {8, 12};
  spec.trials = 10;
  spec.base_seed = 42;
  return spec;
}

std::vector<PointSummary> summaries(const CampaignResult& result) {
  std::vector<PointSummary> out;
  for (const auto& point : result.points) out.push_back(summarize(point));
  return out;
}

/// Run `spec` and collect the record line of every executed trial, sorted:
/// the record set without the (thread-dependent) order it was written in.
CampaignResult run_collecting(const CampaignSpec& spec, RunOptions options,
                              std::vector<std::string>& records) {
  std::mutex mutex;
  options.on_trial = [&](std::size_t point, int trial, std::uint64_t seed,
                         const TrialOutcome& outcome) {
    const std::string line = record_line(TrialRecord{point, trial, seed, outcome});
    const std::lock_guard<std::mutex> lock(mutex);
    records.push_back(line);
  };
  CampaignResult result = run(spec, options);
  std::sort(records.begin(), records.end());
  return result;
}

TEST(Campaign, ThreadCountDoesNotChangeAggregates) {
  const CampaignSpec spec = small_mixed_campaign();
  RunOptions one_thread;
  one_thread.threads = 1;
  std::vector<std::string> serial_records;
  const CampaignResult serial = run_collecting(spec, one_thread, serial_records);

  ASSERT_EQ(serial.points.size(), 4u);  // 2 units x 2 ns
  EXPECT_EQ(serial.threads, 1);
  ASSERT_EQ(serial_records.size(), 40u);
  for (const int threads : {3, 8}) {
    RunOptions options;
    options.threads = threads;
    std::vector<std::string> records;
    const CampaignResult parallel = run_collecting(spec, options, records);
    EXPECT_EQ(parallel.threads, threads);
    // Bit-identical aggregates: PointSummary compares doubles with ==.
    EXPECT_EQ(summaries(serial), summaries(parallel));
    EXPECT_EQ(to_json(serial), to_json(parallel));
    EXPECT_EQ(records, serial_records);
  }
}

TEST(Campaign, TrialCapExecutesTheLargestTrialsFirst) {
  CampaignSpec spec = small_mixed_campaign();
  spec.ns = {12, 8, 16};  // grid order is not n order
  // Points: cycle-cover n = 12, 8, 16 (0-2), one-way-epidemic n = 12, 8, 16
  // (3-5). A cap of 25 takes all 20 trials at n = 16, then the first 5
  // n = 12 trials in grid order: those of point 0.
  std::set<std::pair<std::size_t, int>> expected;
  for (int t = 0; t < 10; ++t) {
    expected.insert({2, t});
    expected.insert({5, t});
  }
  for (int t = 0; t < 5; ++t) expected.insert({0, t});

  for (const int threads : {1, 3, 8}) {
    RunOptions options;
    options.threads = threads;
    options.trial_cap = 25;
    std::mutex mutex;
    std::set<std::pair<std::size_t, int>> executed;
    options.on_trial = [&](std::size_t point, int trial, std::uint64_t, const TrialOutcome&) {
      const std::lock_guard<std::mutex> lock(mutex);
      executed.insert({point, trial});
    };
    const CampaignResult capped = run(spec, options);
    EXPECT_FALSE(capped.complete);
    EXPECT_EQ(capped.executed_trials, 25u);
    EXPECT_EQ(executed, expected) << "threads = " << threads;
  }
}

TEST(Campaign, CappedRunFinishedWithResumeMatchesTheUncappedSummary) {
  const CampaignSpec spec = small_mixed_campaign();
  const CampaignResult uncapped = run(spec);

  RunOptions capped_options;
  capped_options.threads = 3;
  capped_options.trial_cap = 13;
  std::mutex mutex;
  OutcomeMap recorded;
  capped_options.on_trial = [&](std::size_t point, int trial, std::uint64_t,
                                const TrialOutcome& outcome) {
    const std::lock_guard<std::mutex> lock(mutex);
    recorded[{point, trial}] = outcome;
  };
  const CampaignResult capped = run(spec, capped_options);
  ASSERT_FALSE(capped.complete);
  ASSERT_EQ(recorded.size(), 13u);

  RunOptions resume_options;
  resume_options.threads = 3;
  resume_options.resume = &recorded;
  const CampaignResult resumed = run(spec, resume_options);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.resumed_trials, 13u);
  EXPECT_EQ(resumed.executed_trials, uncapped.total_trials - 13u);
  EXPECT_EQ(to_json(resumed), to_json(uncapped));
  EXPECT_EQ(to_csv(resumed), to_csv(uncapped));
}

TEST(Campaign, EmptyGridsProduceNoPoints) {
  CampaignSpec no_units;
  no_units.ns = {8};
  no_units.trials = 5;
  EXPECT_TRUE(run(no_units).points.empty());

  CampaignSpec no_ns;
  no_ns.units.push_back(Unit::protocol("cycle-cover", protocols::cycle_cover()));
  no_ns.trials = 5;
  EXPECT_TRUE(run(no_ns).points.empty());

  CampaignSpec no_trials = small_mixed_campaign();
  no_trials.trials = 0;
  const CampaignResult result = run(no_trials);
  ASSERT_EQ(result.points.size(), 4u);
  EXPECT_EQ(result.total_trials, 0u);
  for (const auto& point : result.points) {
    EXPECT_EQ(point.convergence_steps.count(), 0u);
    EXPECT_EQ(point.failures, 0);
  }
}

TEST(Campaign, TimeoutsAreCountedAsFailures) {
  ProtocolSpec starved = protocols::global_star();
  // A 2-step budget cannot stabilize n = 8, so every trial must fail.
  starved.max_steps = [](int) { return std::uint64_t{2}; };
  CampaignSpec spec;
  spec.units.push_back(Unit::protocol("starved-star", starved));
  spec.ns = {8};
  spec.trials = 6;

  const CampaignResult result = run(spec);
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_EQ(result.points.front().failures, 6);
  EXPECT_EQ(result.points.front().convergence_steps.count(), 0u);
  EXPECT_EQ(result.total_failures, 6u);
}

TEST(Campaign, ThrowingTargetCountsAsFailureWithoutAborting) {
  ProtocolSpec hostile = protocols::cycle_cover();
  hostile.target = [](const Graph&) -> bool { throw std::runtime_error("boom"); };
  CampaignSpec spec;
  spec.units.push_back(Unit::protocol("hostile", hostile));
  spec.units.push_back(Unit::protocol("cycle-cover", protocols::cycle_cover()));
  spec.ns = {8};
  spec.trials = 4;

  const CampaignResult result = run(spec);
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_EQ(result.points[0].failures, 4);
  EXPECT_EQ(result.points[0].first_error, "boom");
  EXPECT_EQ(result.points[1].failures, 0);
  EXPECT_TRUE(result.points[1].first_error.empty());
}

TEST(Campaign, SchedulerAxisExpandsTheGrid) {
  CampaignSpec spec;
  spec.units.push_back(Unit::protocol("cycle-cover", protocols::cycle_cover()));
  spec.ns = {8};
  spec.trials = 4;
  spec.schedulers.push_back(*make_scheduler("uniform"));
  spec.schedulers.push_back(*make_scheduler("permutation"));

  const CampaignResult result = run(spec);
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_EQ(result.points[0].scheduler, "uniform");
  EXPECT_EQ(result.points[1].scheduler, "permutation");
  for (const auto& point : result.points) EXPECT_EQ(point.failures, 0);
}

TEST(Campaign, EngineAxisExpandsTheGridInDeclaredOrder) {
  CampaignSpec spec;
  spec.units.push_back(Unit::protocol("global-star", protocols::global_star()));
  spec.ns = {8, 12};
  spec.trials = 5;
  spec.engines.push_back(*make_engine("naive"));
  spec.engines.push_back(*make_engine("census"));

  const std::vector<GridPoint> grid = expand_grid(spec);
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(grid[0].engine, "naive");
  EXPECT_EQ(grid[0].n, 8);
  EXPECT_EQ(grid[1].engine, "naive");
  EXPECT_EQ(grid[1].n, 12);
  EXPECT_EQ(grid[2].engine, "census");
  EXPECT_EQ(grid[2].n, 8);
  EXPECT_EQ(grid[3].engine, "census");
  EXPECT_EQ(grid[3].n, 12);

  const CampaignResult result = run(spec);
  ASSERT_EQ(result.points.size(), 4u);
  for (const auto& point : result.points) {
    EXPECT_EQ(point.failures, 0) << point.engine << " n=" << point.n;
    EXPECT_GT(point.convergence_steps.mean(), 0.0);
  }
  // Both engines stabilize the star; their per-point means live on the
  // same scale (loose 3x sanity band -- the CI KS gate is the sharp check).
  EXPECT_LT(result.points[0].convergence_steps.mean(),
            3.0 * result.points[2].convergence_steps.mean());
  EXPECT_LT(result.points[2].convergence_steps.mean(),
            3.0 * result.points[0].convergence_steps.mean());
}

TEST(Campaign, OmittedEngineAxisKeepsGridPositionsAndSeeds) {
  // A declared one-option naive axis must not move grid positions or
  // per-trial seeds relative to a spec with no engine axis at all (the
  // compatibility contract that keeps old record fingerprints meaningful).
  CampaignSpec bare;
  bare.units.push_back(Unit::protocol("cycle-cover", protocols::cycle_cover()));
  bare.ns = {8, 12};
  bare.trials = 3;
  bare.base_seed = 99;

  CampaignSpec declared = bare;
  declared.engines.push_back(*make_engine("naive"));

  const std::vector<GridPoint> bare_grid = expand_grid(bare);
  const std::vector<GridPoint> declared_grid = expand_grid(declared);
  ASSERT_EQ(bare_grid.size(), declared_grid.size());
  for (std::size_t i = 0; i < bare_grid.size(); ++i) {
    EXPECT_EQ(bare_grid[i], declared_grid[i]) << "grid point " << i;
    EXPECT_EQ(bare_grid[i].engine, "naive");
  }
}

TEST(Campaign, JsonRoundTripsBitExactly) {
  const CampaignResult result = run(small_mixed_campaign());
  const std::string json = to_json(result);
  const std::vector<PointSummary> parsed = parse_json(json);
  EXPECT_EQ(parsed, summaries(result));
}

TEST(Campaign, CsvHasHeaderAndOneRowPerPoint) {
  const CampaignResult result = run(small_mixed_campaign());
  const std::string csv = to_csv(result);
  std::size_t lines = 0;
  for (const char c : csv) lines += (c == '\n');
  EXPECT_EQ(lines, result.points.size() + 1);
  EXPECT_EQ(csv.rfind("unit,scheduler,faults,engine,n,", 0), 0u);
}

TEST(Campaign, ParseJsonRejectsGarbage) {
  EXPECT_THROW((void)parse_json("not json"), std::runtime_error);
  EXPECT_THROW((void)parse_json("{\"schema\": \"x\"}"), std::runtime_error);
  EXPECT_THROW((void)parse_json("{\"points\": [{}]}"), std::runtime_error);
}

TEST(Seeds, StreamMatchesTrialSeedAndChildStreamsDiffer) {
  EXPECT_EQ(stream_seed(99, 7), trial_seed(99, 7));
  const SeedStream campaign_stream(1);
  const SeedStream point0 = campaign_stream.child(0);
  const SeedStream point1 = campaign_stream.child(1);
  EXPECT_NE(point0.at(0), point1.at(0));
  EXPECT_NE(point0.at(0), point0.at(1));
}

TEST(Registry, EngineRegistryResolvesAndRejects) {
  EXPECT_EQ(engine_names(), (std::vector<std::string>{"naive", "census"}));
  const auto naive = make_engine("naive");
  ASSERT_TRUE(naive.has_value());
  EXPECT_EQ(naive->name, "naive");
  EXPECT_FALSE(naive->make);  // null factory: the reference engine
  const auto census = make_engine("census");
  ASSERT_TRUE(census.has_value());
  EXPECT_EQ(census->name, "census");
  ASSERT_TRUE(static_cast<bool>(census->make));
  const auto engine = census->make(protocols::global_star().protocol, 8, 1, nullptr);
  ASSERT_NE(engine, nullptr);
  EXPECT_STREQ(engine->engine_name(), "census");
  EXPECT_FALSE(make_engine("census-leap").has_value());
  EXPECT_FALSE(make_engine("warp").has_value());
}

TEST(Registry, ResolvesKnownNamesAndRejectsUnknown) {
  EXPECT_TRUE(make_protocol("global-star").has_value());
  EXPECT_FALSE(make_protocol("no-such-protocol").has_value());
  ASSERT_FALSE(process_names().empty());
  EXPECT_TRUE(make_process(process_names().front()).has_value());
  EXPECT_FALSE(make_process("no-such-process").has_value());
  EXPECT_TRUE(make_scheduler("stale-biased").has_value());
  EXPECT_FALSE(make_scheduler("no-such-scheduler").has_value());
  // Parameterized families honour their parameters.
  const auto krc3 = make_protocol("krc", ProtocolParams{3, 3, 3});
  ASSERT_TRUE(krc3.has_value());
  EXPECT_EQ(krc3->protocol.state_count(), 2 * (3 + 1));
}

TEST(SpecCli, EachFailureKindReturnsItsMessageWithoutPrinting) {
  // build_spec reports through its out-parameter only: a caller serving
  // several requests at once must not see them in a shared stream.
  SpecCli valid;
  valid.protocols = {"global-star"};
  valid.ns = {8};
  ASSERT_TRUE(build_spec(valid).has_value());

  const auto with = [&valid](auto edit) {
    SpecCli cli = valid;
    edit(cli);
    return cli;
  };
  const std::vector<std::pair<SpecCli, std::string>> cases = {
      {with([](SpecCli& c) { c.protocols = {"no-such-protocol"}; }),
       "unknown protocol 'no-such-protocol'; registered protocols: "},
      {with([](SpecCli& c) { c.processes = {"no-such-process"}; }),
       "unknown process 'no-such-process'; registered processes: "},
      {with([](SpecCli& c) { c.schedulers = {"no-such-scheduler"}; }),
       "unknown scheduler 'no-such-scheduler'; registered schedulers: "},
      {with([](SpecCli& c) { c.faults = {"meteor:k=1"}; }),
       "fault plan 'meteor:k=1': unknown fault kind 'meteor'"},
      {with([](SpecCli& c) { c.engines = {"warp"}; }),
       "unknown engine 'warp'; registered engines: naive, census"},
      {with([](SpecCli& c) { c.ns.clear(); }),
       "nothing to run: need --protocols and/or --processes, plus --ns"},
      {with([](SpecCli& c) { c.protocols.clear(); }),
       "nothing to run: need --protocols and/or --processes, plus --ns"},
  };
  for (const auto& [cli, expected] : cases) {
    SCOPED_TRACE(expected);
    std::string error;
    testing::internal::CaptureStderr();
    EXPECT_FALSE(build_spec(cli, &error).has_value());
    EXPECT_FALSE(build_spec(cli).has_value());
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    EXPECT_NE(error.find(expected), std::string::npos) << error;
  }
}

TEST(JobQueue, RunsEveryJobExactlyOnceAndPropagatesErrors) {
  std::vector<std::atomic<int>> hits(64);
  run_jobs(hits.size(), 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);

  EXPECT_THROW(
      run_jobs(8, 4,
               [](std::size_t i) {
                 if (i == 3) throw std::logic_error("job failure");
               }),
      std::logic_error);
}

}  // namespace
}  // namespace netcons::campaign
