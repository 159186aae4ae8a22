// The async submit/poll core behind campaign-as-a-service: one engine that
// the netcons_serve daemon, and any other long-lived embedder, drives
// instead of the one-shot campaign::run call.
//
// Jobs are keyed by the *spec fingerprint* — a 64-bit FNV-1a hash of the
// trial-record header line (base seed, trials per point, the expanded
// grid), the exact identity record files already interoperate on. That one
// key gives the serving layer its two economies:
//
//   * Coalescing: submitting a spec whose job is already queued or running
//     attaches the caller to the in-flight job instead of starting a
//     second one. N identical concurrent clients cost one campaign.
//   * Caching: a completed job's artifacts (summary JSON/CSV, compacted
//     records, report) persist in an on-disk cache directory named by the
//     fingerprint, so re-submitting an identical spec is an O(1) lookup —
//     no trials run at all.
//
// Determinism contract: cached artifacts are produced by the same code
// paths the CLIs use (campaign::run reduction, result_sink, compaction,
// analysis::report), so a daemon-served summary/report is byte-identical
// to `netcons_campaign --json` / `netcons_report --json` for the same
// spec. CI cmp-enforces this.
//
// Crash model: an interrupted job leaves its spool (per-trial records,
// flushed per line) under <cache>/jobs/<fingerprint>/; re-submitting the
// same spec resumes from those records via the shared
// load_resume_outcomes path. Only *complete* results are promoted into
// the cache, with a temp-dir + rename so readers never observe a partial
// entry.
#pragma once

#include "campaign/campaign.hpp"
#include "campaign/trial_record.hpp"
#include "fabric/lease.hpp"

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace netcons::telemetry {
class CampaignMonitor;
class Registry;
}  // namespace netcons::telemetry

namespace netcons::campaign {

/// The job id and cache key: 16 lowercase hex digits, the FNV-1a 64-bit
/// hash of header_line(header). Stable across processes and machines —
/// it hashes the canonical serialized fingerprint, not object layout.
[[nodiscard]] std::string spec_fingerprint(const CampaignHeader& header);

/// Where a job runs: on this process's thread pool, or as trial-range
/// leases handed to external netcons_worker processes over the daemon's
/// own HTTP surface (the workers write records into the job's spool).
enum class JobDispatch { kLocal, kFabric };
[[nodiscard]] std::string_view job_dispatch_name(JobDispatch dispatch) noexcept;

enum class JobState { kQueued, kRunning, kDone, kFailed };
[[nodiscard]] std::string_view job_state_name(JobState state) noexcept;

/// One poll of a job. For running jobs, progress fields derive from the
/// spool heartbeat stream (trials_done counts this invocation's executed
/// trials); for done jobs, trials_done == trials_total.
struct JobStatus {
  std::string id;
  JobState state = JobState::kQueued;
  /// Served from the on-disk cache: no trials ran in this process for it.
  bool cached = false;
  std::uint64_t trials_total = 0;
  std::uint64_t trials_done = 0;
  double trials_per_sec = 0.0;
  double eta_s = 0.0;
  /// Execution wall time once done (else 0). Fabric jobs: from the first
  /// lease granted to the end of the spool fold.
  double wall_seconds = 0.0;
  /// While queued/running: the spool directory fabric workers stream
  /// records into. Empty once the job completed.
  std::string records_dir;
  std::string error;  ///< what() of the failure when state == kFailed.
};

/// The answer to one fabric worker call (Scheduler::fabric_join,
/// fabric_lease).
struct FabricAnswer {
  enum class Kind {
    kJoined,      ///< join accepted: worker, heartbeat_s, deadline_s, records_dir.
    kGrant,       ///< lease: execute `lease`, then report it done.
    kWait,        ///< lease: everything is leased out; ask again later.
    kDrain,       ///< every trial is committed: exit cleanly.
    kAlive,       ///< heartbeat accepted.
    kUnknownJob,  ///< no such job (message says why).
    kRefused,     ///< spec mismatch, failed job, dead worker (message says why).
  };
  Kind kind = Kind::kRefused;
  std::string message;
  int worker = 0;
  double heartbeat_s = 0.0;
  double deadline_s = 0.0;
  std::string records_dir;
  fabric::Lease lease;
};

class Scheduler {
 public:
  struct Options {
    /// Cache root (required). Layout: <cache_dir>/<fingerprint>/ holds a
    /// completed entry (header.jsonl, summary.json, summary.csv,
    /// records.jsonl, report.json); <cache_dir>/jobs/<fingerprint>/ holds
    /// the spool of a queued/running/failed job. One live Scheduler per
    /// cache directory — entries are promoted with temp + rename, but two
    /// writers would race the eviction scan.
    std::string cache_dir;
    int threads = 0;      ///< Engine threads per job (0: all cores).
    int job_workers = 1;  ///< Jobs executed concurrently.
    /// Keep at most this many completed cache entries, evicting the
    /// least-recently-hit first (0: unbounded). Hits refresh an entry.
    std::size_t cache_max_entries = 0;
    double heartbeat_period_seconds = 0.5;
    // Fabric dispatch (JobDispatch::kFabric): trials per lease, and the
    // silence after which a worker is declared dead and its leases requeue
    // (see fabric::CoreOptions).
    int fabric_lease_size = 32;
    double fabric_deadline_seconds = 10.0;
    /// Give up on a fabric job with work remaining but no live worker for
    /// this long (0: wait forever).
    double fabric_max_idle_seconds = 600.0;
    /// scheduler.* counters published here (not owned; may be null).
    telemetry::Registry* registry = nullptr;
    /// Test seam: executes one campaign (default: campaign::run). Must
    /// honor RunOptions like run() does — in particular resume, on_trial
    /// (the record sink feeding the cache), and monitor.
    std::function<CampaignResult(const CampaignSpec&, const RunOptions&)> executor;
  };

  /// What submit() decided: the job id (== fingerprint), whether the
  /// answer came straight from the cache (no work scheduled), and whether
  /// the spec coalesced onto an already-in-flight job.
  struct Submitted {
    std::string id;
    bool cached = false;
    bool coalesced = false;
  };

  /// Completion callback, invoked exactly once with the final status —
  /// from a worker thread when the job runs, or synchronously inside
  /// submit() on a cache hit. Every observer attached to a coalesced job
  /// fires when that one job completes.
  using Observer = std::function<void(const JobStatus&)>;

  /// Creates the cache directory and starts the job workers. Throws
  /// std::runtime_error on an empty cache_dir or unusable directory.
  explicit Scheduler(Options options);

  /// Drains nothing: running local jobs finish, a running fabric job and
  /// still-queued jobs are abandoned (their spools persist for a future
  /// resume), then workers join. Observers of queued jobs never fire.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  Submitted submit(const CampaignSpec& spec, JobDispatch dispatch = JobDispatch::kLocal,
                   Observer observer = {});

  /// Status of a job known to this scheduler or present in the cache;
  /// std::nullopt for an unknown id.
  [[nodiscard]] std::optional<JobStatus> poll(const std::string& id) const;

  /// Block until the job reaches kDone/kFailed and its observers have
  /// fired, and return its final status. Throws std::runtime_error for an
  /// unknown id.
  JobStatus wait(const std::string& id);

  /// Absolute path of a completed entry's artifact ("summary.json",
  /// "summary.csv", "records.jsonl", "report.json", "header.jsonl"), or
  /// "" while the job is not in the cache (still running, failed, or
  /// unknown).
  [[nodiscard]] std::string artifact_path(const std::string& id, std::string_view name) const;

  /// Fabric worker calls for the JobDispatch::kFabric job `id` (the lease
  /// endpoints of docs/serving-api.md). join registers a worker launched
  /// with the spec whose header is `theirs`; lease reports the worker's
  /// finished lease (`done`, if any) and asks for the next, or with
  /// `heartbeat` only proves the worker alive mid-lease. A job that is
  /// already done answers kDrain.
  FabricAnswer fabric_join(const std::string& id, const CampaignHeader& theirs);
  FabricAnswer fabric_lease(const std::string& id, int worker,
                            std::optional<std::uint64_t> done, bool heartbeat = false);

  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  struct Job;

  void worker_main();
  void execute(Job& job);
  void run_job(Job& job);
  [[nodiscard]] CampaignResult run_fabric(Job& job, const OutcomeMap& resume);
  void enqueue_locked(const std::shared_ptr<Job>& job, JobDispatch dispatch, Observer observer);
  /// The job's answer when it cannot take fabric calls: nullopt while it
  /// holds a lease table and is queued or running.
  [[nodiscard]] std::optional<FabricAnswer> fabric_refusal_locked(const std::string& id,
                                                                 const Job* job) const;
  void publish_fabric_gauges(const fabric::CoordinatorCore& core) const;
  void store_entry(const Job& job, const CampaignResult& result);
  void evict();
  void count(std::string_view name) const;

  [[nodiscard]] std::string entry_dir(const std::string& id) const;
  [[nodiscard]] std::string spool_records_dir(const std::string& id) const;
  /// Entry present, complete, and carrying this exact header (the
  /// header.jsonl guard demotes a fingerprint collision to a cache miss).
  [[nodiscard]] bool cache_entry_matches(const std::string& id,
                                         const CampaignHeader& header) const;
  [[nodiscard]] JobStatus status_locked(const Job& job) const;

  Options options_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::condition_variable fabric_cv_;  ///< Wakes run_fabric: a lease completed, or stopping_.
  std::map<std::string, std::shared_ptr<Job>> jobs_;
  std::deque<std::shared_ptr<Job>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace netcons::campaign
