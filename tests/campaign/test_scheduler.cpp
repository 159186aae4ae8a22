#include "campaign/scheduler.hpp"

#include "campaign/campaign.hpp"
#include "campaign/result_sink.hpp"
#include "protocols/protocols.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include <unistd.h>

namespace netcons::campaign {
namespace {

/// Per-test scratch cache, deleted on every exit path.
struct ScratchCache {
  std::filesystem::path path;
  ScratchCache()
      : path(std::filesystem::temp_directory_path() /
             ("netcons_test_scheduler_" + std::to_string(static_cast<long>(::getpid())) + "_" +
              std::to_string(next()))) {}
  ~ScratchCache() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  static int next() {
    static std::atomic<int> counter{0};
    return counter.fetch_add(1);
  }
};

CampaignSpec tiny_campaign(std::uint64_t seed = 42) {
  CampaignSpec spec;
  spec.units.push_back(Unit::protocol("cycle-cover", protocols::cycle_cover()));
  spec.ns = {8};
  spec.trials = 4;
  spec.base_seed = seed;
  return spec;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

Scheduler::Options cache_options(const ScratchCache& scratch) {
  Scheduler::Options options;
  options.cache_dir = scratch.path.string();
  options.threads = 2;
  return options;
}

TEST(SpecFingerprint, IsStableAndHeaderSensitive) {
  const CampaignSpec spec = tiny_campaign();
  const CampaignHeader header = CampaignHeader::describe(spec);
  const std::string id = spec_fingerprint(header);
  EXPECT_EQ(id.size(), 16u);
  EXPECT_EQ(id.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(id, spec_fingerprint(CampaignHeader::describe(spec)));

  CampaignSpec more_trials = spec;
  more_trials.trials = 5;
  EXPECT_NE(id, spec_fingerprint(CampaignHeader::describe(more_trials)));
  CampaignSpec other_seed = spec;
  other_seed.base_seed = 43;
  EXPECT_NE(id, spec_fingerprint(CampaignHeader::describe(other_seed)));
}

TEST(Scheduler, RejectsEmptyCacheDir) {
  Scheduler::Options options;
  EXPECT_THROW(Scheduler scheduler(options), std::runtime_error);
}

TEST(Scheduler, CoalescesIdenticalInFlightSubmits) {
  const ScratchCache scratch;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> executions{0};

  Scheduler::Options options = cache_options(scratch);
  options.executor = [&](const CampaignSpec& spec, const RunOptions& run_options) {
    executions.fetch_add(1);
    released.wait();
    return run(spec, run_options);
  };
  Scheduler scheduler(options);

  std::atomic<int> observers{0};
  const Scheduler::Submitted first =
      scheduler.submit(tiny_campaign(), JobDispatch::kLocal,
                       [&](const JobStatus& status) {
                         EXPECT_EQ(status.state, JobState::kDone);
                         observers.fetch_add(1);
                       });
  EXPECT_FALSE(first.cached);
  EXPECT_FALSE(first.coalesced);

  // Same spec while the first job is queued/running: attach, don't rerun.
  const Scheduler::Submitted second =
      scheduler.submit(tiny_campaign(), JobDispatch::kLocal,
                       [&](const JobStatus&) { observers.fetch_add(1); });
  EXPECT_EQ(second.id, first.id);
  EXPECT_FALSE(second.cached);
  EXPECT_TRUE(second.coalesced);

  release.set_value();
  const JobStatus status = scheduler.wait(first.id);
  EXPECT_EQ(status.state, JobState::kDone);
  EXPECT_EQ(status.trials_done, status.trials_total);
  EXPECT_EQ(executions.load(), 1);
  EXPECT_EQ(observers.load(), 2);
}

TEST(Scheduler, PollTracksLifecycleAndRejectsUnknownIds) {
  const ScratchCache scratch;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  Scheduler::Options options = cache_options(scratch);
  options.executor = [&](const CampaignSpec& spec, const RunOptions& run_options) {
    released.wait();
    return run(spec, run_options);
  };
  Scheduler scheduler(options);

  EXPECT_FALSE(scheduler.poll("0123456789abcdef").has_value());
  EXPECT_THROW((void)scheduler.wait("0123456789abcdef"), std::runtime_error);

  const Scheduler::Submitted submitted = scheduler.submit(tiny_campaign());
  const std::optional<JobStatus> early = scheduler.poll(submitted.id);
  ASSERT_TRUE(early.has_value());
  EXPECT_TRUE(early->state == JobState::kQueued || early->state == JobState::kRunning);
  EXPECT_EQ(early->trials_total, 4u);
  EXPECT_FALSE(early->records_dir.empty());
  // Artifacts are unavailable until the job completes.
  EXPECT_EQ(scheduler.artifact_path(submitted.id, "summary.json"), "");

  release.set_value();
  const JobStatus done = scheduler.wait(submitted.id);
  EXPECT_EQ(done.state, JobState::kDone);
  EXPECT_EQ(done.trials_done, 4u);
  EXPECT_TRUE(done.error.empty());
  EXPECT_NE(scheduler.artifact_path(submitted.id, "summary.json"), "");
}

TEST(Scheduler, RelativeCacheDirYieldsAbsoluteRecordsDir) {
  // A status document's records_dir must be usable from any directory, so
  // a relative cache root is resolved once, when the scheduler starts.
  const ScratchCache scratch;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  Scheduler::Options options = cache_options(scratch);
  options.cache_dir = std::filesystem::relative(scratch.path).string();
  ASSERT_TRUE(std::filesystem::path(options.cache_dir).is_relative());
  options.executor = [&](const CampaignSpec& spec, const RunOptions& run_options) {
    released.wait();
    return run(spec, run_options);
  };
  Scheduler scheduler(options);

  const Scheduler::Submitted submitted = scheduler.submit(tiny_campaign());
  const std::optional<JobStatus> early = scheduler.poll(submitted.id);
  release.set_value();
  ASSERT_TRUE(early.has_value());
  const std::filesystem::path records(early->records_dir);
  EXPECT_TRUE(records.is_absolute()) << early->records_dir;
  EXPECT_EQ(std::filesystem::weakly_canonical(records),
            std::filesystem::weakly_canonical(scratch.path / "jobs" / submitted.id / "records"));
  EXPECT_EQ(scheduler.wait(submitted.id).state, JobState::kDone);
}

TEST(Scheduler, ServesRepeatSubmitsFromCacheAcrossInstances) {
  const ScratchCache scratch;
  std::atomic<int> executions{0};
  std::string id;
  {
    Scheduler::Options options = cache_options(scratch);
    options.executor = [&](const CampaignSpec& spec, const RunOptions& run_options) {
      executions.fetch_add(1);
      return run(spec, run_options);
    };
    Scheduler scheduler(options);
    id = scheduler.submit(tiny_campaign()).id;
    scheduler.wait(id);
    EXPECT_EQ(executions.load(), 1);

    // Re-submit in the same instance: answered synchronously from cache.
    bool observed = false;
    const Scheduler::Submitted again =
        scheduler.submit(tiny_campaign(), JobDispatch::kLocal, [&](const JobStatus& status) {
          EXPECT_TRUE(status.cached);
          observed = true;
        });
    EXPECT_TRUE(again.cached);
    EXPECT_TRUE(observed);
    EXPECT_EQ(executions.load(), 1);
  }

  // A fresh scheduler over the same cache directory: still a hit, and the
  // cached bytes are exactly what the one-shot CLI path would emit.
  Scheduler::Options options = cache_options(scratch);
  options.executor = [&](const CampaignSpec& spec, const RunOptions& run_options) {
    executions.fetch_add(1);
    return run(spec, run_options);
  };
  Scheduler scheduler(options);
  const Scheduler::Submitted hit = scheduler.submit(tiny_campaign());
  EXPECT_TRUE(hit.cached);
  EXPECT_EQ(executions.load(), 1);

  const std::optional<JobStatus> polled = scheduler.poll(id);
  ASSERT_TRUE(polled.has_value());
  EXPECT_EQ(polled->state, JobState::kDone);
  EXPECT_TRUE(polled->cached);

  const std::string summary_path = scheduler.artifact_path(id, "summary.json");
  ASSERT_FALSE(summary_path.empty());
  EXPECT_EQ(read_file(summary_path), to_json(run(tiny_campaign())));
}

TEST(Scheduler, EvictsLeastRecentlyUsedEntriesBeyondTheCap) {
  const ScratchCache scratch;
  Scheduler::Options options = cache_options(scratch);
  options.cache_max_entries = 1;
  Scheduler scheduler(options);

  const std::string first = scheduler.submit(tiny_campaign(1)).id;
  scheduler.wait(first);
  ASSERT_NE(scheduler.artifact_path(first, "summary.json"), "");

  const std::string second = scheduler.submit(tiny_campaign(2)).id;
  scheduler.wait(second);

  // The cap keeps only the newest entry; the older one is gone from disk.
  EXPECT_EQ(scheduler.artifact_path(first, "summary.json"), "");
  EXPECT_NE(scheduler.artifact_path(second, "summary.json"), "");
}

TEST(Scheduler, FailedJobsReportTheErrorAndRetryOnResubmit) {
  const ScratchCache scratch;
  std::atomic<int> executions{0};
  Scheduler::Options options = cache_options(scratch);
  options.executor = [&](const CampaignSpec& spec,
                         const RunOptions& run_options) -> CampaignResult {
    if (executions.fetch_add(1) == 0) throw std::runtime_error("induced failure");
    return run(spec, run_options);
  };
  Scheduler scheduler(options);

  const std::string id = scheduler.submit(tiny_campaign()).id;
  const JobStatus failed = scheduler.wait(id);
  EXPECT_EQ(failed.state, JobState::kFailed);
  EXPECT_NE(failed.error.find("induced failure"), std::string::npos);
  EXPECT_EQ(scheduler.artifact_path(id, "summary.json"), "");

  // A failed job is not sticky: re-submitting re-enqueues it.
  const Scheduler::Submitted retry = scheduler.submit(tiny_campaign());
  EXPECT_EQ(retry.id, id);
  EXPECT_FALSE(retry.cached);
  const JobStatus done = scheduler.wait(id);
  EXPECT_EQ(done.state, JobState::kDone);
  EXPECT_EQ(executions.load(), 2);
}

}  // namespace
}  // namespace netcons::campaign
