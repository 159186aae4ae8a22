#include "campaign/trial_record.hpp"

#include "campaign/campaign.hpp"
#include "campaign/registry.hpp"
#include "campaign/result_sink.hpp"
#include "protocols/protocols.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

namespace netcons::campaign {
namespace {

namespace fs = std::filesystem;

CampaignSpec small_campaign() {
  CampaignSpec spec;
  spec.units.push_back(Unit::protocol("cycle-cover", protocols::cycle_cover()));
  spec.units.push_back(Unit::protocol("global-star", protocols::global_star()));
  spec.ns = {8, 12};
  spec.trials = 6;
  spec.base_seed = 7;
  return spec;
}

/// Fresh per-test scratch directory under the gtest temp root.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("netcons_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Run `spec` while streaming records into `dir` as shard `index`/`count`.
CampaignResult run_recorded(const CampaignSpec& spec, const fs::path& dir, int shard_index = 0,
                            int shard_count = 1, std::uint64_t trial_cap = 0,
                            const OutcomeMap* resume = nullptr) {
  const CampaignHeader header = CampaignHeader::describe(spec);
  const int generation = next_generation(dir.string(), shard_index, shard_count);
  TrialRecordSink sink((dir / record_file_name(shard_index, shard_count, generation)).string(),
                       header);
  RunOptions options;
  options.threads = 2;
  options.select = [&spec, shard_index, shard_count](std::size_t point, int trial) {
    return in_shard(point, trial, spec.trials, shard_index, shard_count);
  };
  options.trial_cap = trial_cap;
  options.resume = resume;
  options.on_trial = [&sink](std::size_t point, int trial, std::uint64_t seed,
                             const TrialOutcome& outcome) {
    sink.write(TrialRecord{point, trial, seed, outcome});
  };
  return run(spec, options);
}

/// Rebuild a CampaignResult from every record in `dir` (must be complete).
CampaignResult merge_dir(const fs::path& dir) {
  LoadedRecords loaded;
  load_records(dir.string(), loaded);
  const CampaignHeader& header = *loaded.header;
  std::vector<std::vector<TrialOutcome>> outcomes(header.points.size());
  for (std::size_t p = 0; p < header.points.size(); ++p) {
    outcomes[p].resize(static_cast<std::size_t>(header.trials));
    for (int t = 0; t < header.trials; ++t) {
      outcomes[p][static_cast<std::size_t>(t)] = loaded.outcomes.at({p, t});
    }
  }
  return reduce_outcomes(header.points, header.trials, outcomes);
}

TEST(TrialRecords, HeaderLineRoundTrips) {
  const CampaignSpec spec = small_campaign();
  const CampaignHeader header = CampaignHeader::describe(spec);
  ASSERT_EQ(header.points.size(), 4u);
  EXPECT_EQ(header.trials, 6);
  EXPECT_EQ(parse_header_line(header_line(header)), header);
}

TEST(TrialRecords, RecordLineRoundTripsIncludingErrorEscapes) {
  TrialRecord record;
  record.point = 3;
  record.trial = 41;
  record.seed = 0xDEADBEEFCAFEBABEull;
  record.outcome.success = false;
  record.outcome.target_ok = true;
  record.outcome.value = 123456789;
  record.outcome.steps_executed = 987654321;
  record.outcome.faults_injected = 2;
  record.outcome.recovery_steps = 17;
  record.outcome.edges_deleted = 5;
  record.outcome.edges_repaired = 4;
  record.outcome.edges_residual = 1;
  record.outcome.error = "line\ntab\t\"quote\"";

  const TrialRecord parsed = parse_record_line(record_line(record));
  EXPECT_EQ(parsed.point, record.point);
  EXPECT_EQ(parsed.trial, record.trial);
  EXPECT_EQ(parsed.seed, record.seed);
  EXPECT_EQ(parsed.outcome.success, record.outcome.success);
  EXPECT_EQ(parsed.outcome.target_ok, record.outcome.target_ok);
  EXPECT_EQ(parsed.outcome.value, record.outcome.value);
  EXPECT_EQ(parsed.outcome.steps_executed, record.outcome.steps_executed);
  EXPECT_EQ(parsed.outcome.faults_injected, record.outcome.faults_injected);
  EXPECT_EQ(parsed.outcome.recovery_steps, record.outcome.recovery_steps);
  EXPECT_EQ(parsed.outcome.edges_deleted, record.outcome.edges_deleted);
  EXPECT_EQ(parsed.outcome.edges_repaired, record.outcome.edges_repaired);
  EXPECT_EQ(parsed.outcome.edges_residual, record.outcome.edges_residual);
  EXPECT_EQ(parsed.outcome.error, record.outcome.error);
}

TEST(TrialRecords, SinkStreamRebuildsTheExactSummary) {
  const CampaignSpec spec = small_campaign();
  const fs::path dir = scratch_dir("sink_rebuild");
  const CampaignResult live = run_recorded(spec, dir);
  ASSERT_TRUE(live.complete);

  LoadedRecords loaded;
  load_records(dir.string(), loaded);
  EXPECT_EQ(loaded.files, 1u);
  EXPECT_EQ(loaded.records, live.total_trials);
  EXPECT_EQ(loaded.duplicates, 0u);
  EXPECT_EQ(loaded.discarded_partial, 0u);

  // Byte-identical summaries: the acceptance criterion, at the API level.
  EXPECT_EQ(to_json(merge_dir(dir)), to_json(live));
  EXPECT_EQ(to_csv(merge_dir(dir)), to_csv(live));
}

TEST(TrialRecords, ShardsPartitionEveryTrialExactlyOnce) {
  const int trials = 7;
  const std::size_t points = 5;
  for (const int k : {1, 2, 3, 4}) {
    for (std::size_t p = 0; p < points; ++p) {
      for (int t = 0; t < trials; ++t) {
        int owners = 0;
        for (int i = 0; i < k; ++i) owners += in_shard(p, t, trials, i, k) ? 1 : 0;
        ASSERT_EQ(owners, 1) << "p=" << p << " t=" << t << " k=" << k;
      }
    }
  }
}

TEST(TrialRecords, ShardedRunsMergeToTheUnshardedBytes) {
  const CampaignSpec spec = small_campaign();
  const CampaignResult unsharded = run(spec);

  const fs::path dir = scratch_dir("sharded");
  std::uint64_t executed = 0;
  for (int i = 0; i < 3; ++i) {
    const CampaignResult shard = run_recorded(spec, dir, i, 3);
    EXPECT_FALSE(shard.complete);
    EXPECT_TRUE(shard.points.empty());
    executed += shard.executed_trials;
  }
  EXPECT_EQ(executed, unsharded.total_trials);

  EXPECT_EQ(to_json(merge_dir(dir)), to_json(unsharded));
  EXPECT_EQ(to_csv(merge_dir(dir)), to_csv(unsharded));
}

TEST(TrialRecords, TrialCapInterruptsAndResumeReachesTheSameBytes) {
  const CampaignSpec spec = small_campaign();
  const CampaignResult uninterrupted = run(spec);

  const fs::path dir = scratch_dir("resume");
  const CampaignResult capped = run_recorded(spec, dir, 0, 1, /*trial_cap=*/9);
  EXPECT_FALSE(capped.complete);
  EXPECT_EQ(capped.executed_trials, 9u);

  LoadedRecords loaded;
  loaded.header = CampaignHeader::describe(spec);
  load_records(dir.string(), loaded);
  ASSERT_EQ(loaded.outcomes.size(), 9u);

  const CampaignResult resumed = run_recorded(spec, dir, 0, 1, 0, &loaded.outcomes);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.resumed_trials, 9u);
  EXPECT_EQ(resumed.executed_trials, uninterrupted.total_trials - 9u);
  EXPECT_EQ(to_json(resumed), to_json(uninterrupted));

  // The two generations in the directory also merge to the same bytes.
  EXPECT_EQ(to_json(merge_dir(dir)), to_json(uninterrupted));
}

TEST(TrialRecords, TruncatedTrailingLineIsDiscardedAndRedone) {
  const CampaignSpec spec = small_campaign();
  const fs::path dir = scratch_dir("truncated");
  const CampaignResult live = run_recorded(spec, dir);
  ASSERT_TRUE(live.complete);

  // Simulate a kill mid-write: chop the file inside its final line.
  const fs::path file = dir / record_file_name(0, 1, 0);
  const auto size = fs::file_size(file);
  fs::resize_file(file, size - 10);

  LoadedRecords loaded;
  loaded.header = CampaignHeader::describe(spec);
  load_records(dir.string(), loaded);
  EXPECT_EQ(loaded.discarded_partial, 1u);
  EXPECT_EQ(loaded.outcomes.size(), live.total_trials - 1);

  // Resume executes exactly the trial whose record was cut short, and the
  // final summary is unaffected by the interruption.
  const CampaignResult resumed = run_recorded(spec, dir, 0, 1, 0, &loaded.outcomes);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.executed_trials, 1u);
  EXPECT_EQ(to_json(resumed), to_json(live));
}

TEST(TrialRecords, DuplicateRecordsLastWins) {
  const CampaignSpec spec = small_campaign();
  const CampaignHeader header = CampaignHeader::describe(spec);

  const fs::path dir = scratch_dir("duplicates");
  TrialRecord first;
  first.point = 0;
  first.trial = 0;
  first.seed = 1;
  first.outcome.success = true;
  first.outcome.value = 111;
  TrialRecord second = first;
  second.outcome.value = 222;

  {
    std::ofstream file(dir / record_file_name(0, 1, 0));
    file << header_line(header) << '\n'
         << record_line(first) << '\n'
         << record_line(second) << '\n';
  }
  LoadedRecords loaded;
  load_records(dir.string(), loaded);
  EXPECT_EQ(loaded.records, 2u);
  EXPECT_EQ(loaded.duplicates, 1u);
  EXPECT_EQ(loaded.outcomes.at({0, 0}).value, 222u);

  // Across files: a later generation supersedes an earlier one (scan order
  // is sorted file name, and generations zero-pad so names sort by age).
  TrialRecord third = first;
  third.outcome.value = 333;
  {
    std::ofstream file(dir / record_file_name(0, 1, 1));
    file << header_line(header) << '\n' << record_line(third) << '\n';
  }
  LoadedRecords again;
  load_records(dir.string(), again);
  EXPECT_EQ(again.duplicates, 2u);
  EXPECT_EQ(again.outcomes.at({0, 0}).value, 333u);
}

TEST(TrialRecords, MismatchedSpecIsAHardErrorNamingTheField) {
  const CampaignSpec spec = small_campaign();
  const fs::path dir = scratch_dir("mismatch");
  (void)run_recorded(spec, dir);

  const auto expect_mismatch = [&](const CampaignSpec& other, const std::string& field) {
    LoadedRecords loaded;
    loaded.header = CampaignHeader::describe(other);
    try {
      load_records(dir.string(), loaded);
      FAIL() << "expected a header mismatch on " << field;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("different campaign"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  };

  CampaignSpec different_seed = small_campaign();
  different_seed.base_seed = 8;
  expect_mismatch(different_seed, "base_seed");

  CampaignSpec different_trials = small_campaign();
  different_trials.trials = 12;
  expect_mismatch(different_trials, "trials");

  CampaignSpec different_n = small_campaign();
  different_n.ns = {8, 16};
  expect_mismatch(different_n, "n");

  CampaignSpec different_unit = small_campaign();
  different_unit.units[1] = Unit::protocol("global-ring", protocols::global_ring());
  expect_mismatch(different_unit, "unit");

  CampaignSpec fewer_points = small_campaign();
  fewer_points.ns = {8};
  expect_mismatch(fewer_points, "points");
}

TEST(TrialRecords, EngineAxisIsPartOfTheFingerprint) {
  // Records written under one engine must not resume or merge into a
  // campaign declared with another: the mismatch is a hard error naming
  // the engine field.
  CampaignSpec census_spec = small_campaign();
  census_spec.engines.push_back(*make_engine("census"));
  const fs::path dir = scratch_dir("engine_fingerprint");
  (void)run_recorded(census_spec, dir);

  CampaignSpec naive_spec = small_campaign();
  naive_spec.engines.push_back(*make_engine("naive"));
  LoadedRecords loaded;
  loaded.header = CampaignHeader::describe(naive_spec);
  try {
    load_records(dir.string(), loaded);
    FAIL() << "expected a header mismatch on engine";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("engine"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("census"), std::string::npos) << e.what();
  }

  // And the header round-trips the engine name through its JSONL form.
  const CampaignHeader header = CampaignHeader::describe(census_spec);
  const CampaignHeader parsed = parse_header_line(header_line(header));
  EXPECT_EQ(parsed, header);
  ASSERT_FALSE(parsed.points.empty());
  EXPECT_EQ(parsed.points[0].engine, "census");
}

TEST(TrialRecords, MalformedInteriorLineIsCorruptionNotACrash) {
  const CampaignSpec spec = small_campaign();
  const CampaignHeader header = CampaignHeader::describe(spec);
  const fs::path dir = scratch_dir("corrupt");
  TrialRecord record;
  record.outcome.success = true;
  {
    std::ofstream file(dir / record_file_name(0, 1, 0));
    file << header_line(header) << '\n'
         << "{this is not json}\n"
         << record_line(record) << '\n';
  }
  LoadedRecords loaded;
  EXPECT_THROW(load_records(dir.string(), loaded), std::runtime_error);
}

TEST(TrialRecords, RecordsOutsideTheGridAreHardErrors) {
  const CampaignSpec spec = small_campaign();
  const CampaignHeader header = CampaignHeader::describe(spec);
  const fs::path dir = scratch_dir("out_of_grid");
  TrialRecord record;
  record.point = header.points.size();  // One past the end.
  {
    std::ofstream file(dir / record_file_name(0, 1, 0));
    file << header_line(header) << '\n' << record_line(record) << '\n';
  }
  LoadedRecords loaded;
  EXPECT_THROW(load_records(dir.string(), loaded), std::runtime_error);
}

TEST(TrialRecords, GenerationsAdvancePerShard) {
  const fs::path dir = scratch_dir("generations");
  EXPECT_EQ(next_generation(dir.string(), 0, 1), 0);
  { std::ofstream file(dir / record_file_name(0, 1, 0)); }
  EXPECT_EQ(next_generation(dir.string(), 0, 1), 1);
  // Other shards are unaffected.
  EXPECT_EQ(next_generation(dir.string(), 1, 2), 0);
}

}  // namespace
}  // namespace netcons::campaign
