#include "campaign/scheduler.hpp"

#include "analysis/report.hpp"
#include "campaign/result_sink.hpp"
#include "telemetry/heartbeat.hpp"
#include "telemetry/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace netcons::campaign {

namespace {

void write_text(const std::filesystem::path& path, const std::string& content) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << content;
  file.flush();
  if (!file) {
    throw std::runtime_error("scheduler: cannot write " + path.string());
  }
}

/// Last parseable heartbeat line of the job spool — the live progress a
/// poll reports. Torn tails and foreign lines skip silently, exactly like
/// the other tailing reader (netcons_top).
void fill_progress(const std::string& path, JobStatus& status) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return;
  std::string line;
  std::optional<telemetry::HeartbeatPoint> last;
  while (std::getline(file, line)) {
    if (auto point = telemetry::parse_heartbeat_line(line)) last = std::move(point);
  }
  if (!last) return;
  status.trials_done = last->trials_done;
  status.trials_per_sec = last->trials_per_sec;
  status.eta_s = last->eta_s;
}

/// A completed cache entry's status: no trials run for it in this process.
JobStatus cached_status(const std::string& id, const CampaignHeader& header) {
  JobStatus status;
  status.id = id;
  status.state = JobState::kDone;
  status.cached = true;
  status.trials_total = static_cast<std::uint64_t>(header.points.size()) *
                        static_cast<std::uint64_t>(header.trials);
  status.trials_done = status.trials_total;
  return status;
}

}  // namespace

std::string spec_fingerprint(const CampaignHeader& header) {
  const std::string line = header_line(header);
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a 64-bit offset basis.
  for (const unsigned char c : line) {
    hash ^= static_cast<std::uint64_t>(c);
    hash *= 1099511628211ull;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(hash));
  return buffer;
}

std::string_view job_dispatch_name(JobDispatch dispatch) noexcept {
  return dispatch == JobDispatch::kFabric ? "fabric" : "local";
}

std::string_view job_state_name(JobState state) noexcept {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
  }
  return "queued";
}

struct Scheduler::Job {
  std::string id;
  CampaignSpec spec;
  CampaignHeader header;
  JobDispatch dispatch = JobDispatch::kLocal;
  JobState state = JobState::kQueued;
  double wall_seconds = 0.0;
  /// kFabric: the lease table, created when the job is queued so workers
  /// can join before a job worker starts it. Grants wait for `leasing`,
  /// which run_fabric sets once the spool's resumed slots are precommitted.
  std::unique_ptr<fabric::CoordinatorCore> leases;
  bool leasing = false;
  std::optional<fabric::CoordinatorCore::Clock::time_point> first_grant;
  std::string error;
  std::vector<Observer> observers;
  /// Completions whose observers are still firing: wait() holds back until
  /// this drops to zero, so a waiter never overtakes the observers.
  int observers_firing = 0;
};

Scheduler::Scheduler(Options options) : options_(std::move(options)) {
  if (options_.cache_dir.empty()) {
    throw std::runtime_error("scheduler: a cache directory is required");
  }
  // Absolute once, here, so every path handed out (poll's records_dir, the
  // fabric join reply, artifact paths) agrees whatever the caller's cwd.
  options_.cache_dir = std::filesystem::absolute(options_.cache_dir).string();
  std::filesystem::create_directories(options_.cache_dir);
  const int workers = std::max(1, options_.job_workers);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

Scheduler::~Scheduler() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  fabric_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::string Scheduler::entry_dir(const std::string& id) const {
  return (std::filesystem::path(options_.cache_dir) / id).string();
}

std::string Scheduler::spool_records_dir(const std::string& id) const {
  return (std::filesystem::path(options_.cache_dir) / "jobs" / id / "records").string();
}

bool Scheduler::cache_entry_matches(const std::string& id, const CampaignHeader& header) const {
  const std::filesystem::path entry = entry_dir(id);
  if (!std::filesystem::exists(entry / "summary.json")) return false;
  std::ifstream file(entry / "header.jsonl", std::ios::binary);
  std::string line;
  if (!file || !std::getline(file, line)) return false;
  return line == header_line(header);
}

JobStatus Scheduler::status_locked(const Job& job) const {
  JobStatus status;
  status.id = job.id;
  status.state = job.state;
  status.trials_total = static_cast<std::uint64_t>(job.header.points.size()) *
                        static_cast<std::uint64_t>(job.header.trials);
  if (job.state == JobState::kDone) status.trials_done = status.trials_total;
  // A fabric job's trials run elsewhere: its lease table is the progress.
  if (job.state == JobState::kRunning && job.leases) status.trials_done = job.leases->committed();
  status.wall_seconds = job.wall_seconds;
  if (job.state == JobState::kQueued || job.state == JobState::kRunning) {
    status.records_dir = spool_records_dir(job.id);
  }
  status.error = job.error;
  return status;
}

void Scheduler::count(std::string_view name) const {
  if (options_.registry != nullptr) options_.registry->add(name);
}

void Scheduler::enqueue_locked(const std::shared_ptr<Job>& job, JobDispatch dispatch,
                               Observer observer) {
  job->state = JobState::kQueued;
  job->error.clear();
  job->dispatch = dispatch;
  job->leases.reset();
  job->leasing = false;
  job->first_grant.reset();
  if (dispatch == JobDispatch::kFabric) {
    const double deadline = options_.fabric_deadline_seconds;
    fabric::CoreOptions core;
    core.lease_size = options_.fabric_lease_size;
    core.deadline = std::chrono::duration_cast<fabric::CoordinatorCore::Clock::duration>(
        std::chrono::duration<double>(deadline > 0.0 ? deadline : 1e9));
    job->leases = std::make_unique<fabric::CoordinatorCore>(job->header.points.size(),
                                                            job->header.trials, core);
  }
  if (observer) job->observers.push_back(std::move(observer));
  queue_.push_back(job);
  work_cv_.notify_one();
}

Scheduler::Submitted Scheduler::submit(const CampaignSpec& spec, JobDispatch dispatch,
                                       Observer observer) {
  const CampaignHeader header = CampaignHeader::describe(spec);
  Submitted submitted{spec_fingerprint(header), false, false};
  const std::string& id = submitted.id;
  std::optional<JobStatus> immediate;  // Fires the observer outside the lock.
  {
    std::lock_guard lock(mutex_);
    const auto it = jobs_.find(id);
    if (it != jobs_.end()) {
      Job& job = *it->second;
      switch (job.state) {
        case JobState::kQueued:
        case JobState::kRunning:
          if (observer) job.observers.push_back(std::move(observer));
          submitted.coalesced = true;
          count("scheduler.coalesced");
          return submitted;
        case JobState::kDone:
          if (!cache_entry_matches(id, header)) {
            // Completed earlier but evicted since: treat as a miss.
            enqueue_locked(it->second, dispatch, std::move(observer));
            count("scheduler.cache_misses");
            return submitted;
          }
          // Completed earlier in this process: the artifacts are in the
          // cache; answer without scheduling anything.
          submitted.cached = true;
          immediate = status_locked(job);
          immediate->cached = true;
          count("scheduler.cache_hits");
          break;
        case JobState::kFailed:
          // A failure (disk, fabric give-up) is retryable: the spool kept
          // its records, so the retry resumes instead of starting over.
          enqueue_locked(it->second, dispatch, std::move(observer));
          count("scheduler.retries");
          return submitted;
      }
    } else if (cache_entry_matches(id, header)) {
      submitted.cached = true;
      immediate = cached_status(id, header);
      // Refresh the entry so least-recently-hit eviction keeps hot specs.
      std::error_code ec;
      std::filesystem::last_write_time(std::filesystem::path(entry_dir(id)) / "summary.json",
                                       std::filesystem::file_time_type::clock::now(), ec);
      count("scheduler.cache_hits");
    } else {
      auto job = std::make_shared<Job>();
      job->id = id;
      job->spec = spec;
      job->header = header;
      jobs_.emplace(id, job);
      enqueue_locked(job, dispatch, std::move(observer));
      count("scheduler.cache_misses");
      return submitted;
    }
  }
  if (immediate && observer) observer(*immediate);
  return submitted;
}

std::optional<JobStatus> Scheduler::poll(const std::string& id) const {
  std::string heartbeat_path;
  JobStatus status;
  {
    std::lock_guard lock(mutex_);
    const auto it = jobs_.find(id);
    if (it != jobs_.end()) {
      status = status_locked(*it->second);
      if (status.state == JobState::kRunning && !it->second->leases) {
        heartbeat_path = (std::filesystem::path(options_.cache_dir) / "jobs" / id /
                          "heartbeat.jsonl")
                             .string();
      }
    } else {
      // Not a job this process ran: a completed entry in the cache still
      // answers (that is the whole point of fingerprint-keyed storage).
      const std::filesystem::path entry = entry_dir(id);
      if (!std::filesystem::exists(entry / "summary.json")) return std::nullopt;
      std::ifstream file(entry / "header.jsonl", std::ios::binary);
      std::string line;
      if (!file || !std::getline(file, line)) return std::nullopt;
      status = cached_status(id, parse_header_line(line));
    }
  }
  if (!heartbeat_path.empty()) fill_progress(heartbeat_path, status);
  return status;
}

JobStatus Scheduler::wait(const std::string& id) {
  std::unique_lock lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    lock.unlock();
    const auto status = poll(id);
    if (!status) throw std::runtime_error("scheduler: unknown job id '" + id + "'");
    return *status;
  }
  const std::shared_ptr<Job> job = it->second;
  done_cv_.wait(lock, [&] {
    return (job->state == JobState::kDone || job->state == JobState::kFailed) &&
           job->observers_firing == 0;
  });
  return status_locked(*job);
}

std::string Scheduler::artifact_path(const std::string& id, std::string_view name) const {
  const std::filesystem::path path = std::filesystem::path(entry_dir(id)) / name;
  // The summary is the last artifact promoted (rename makes the whole
  // entry appear at once), so existence of the file == entry is complete.
  return std::filesystem::exists(path) ? path.string() : std::string();
}

void Scheduler::worker_main() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_, nothing left to start
      job = queue_.front();
      queue_.pop_front();
      job->state = JobState::kRunning;
    }
    execute(*job);
  }
}

void Scheduler::execute(Job& job) {
  std::string error;
  bool failed = false;
  try {
    run_job(job);
  } catch (const std::exception& e) {
    failed = true;
    error = e.what();
  }
  // Publishing the final state and claiming the observers is one step, so
  // a submit() that lands in between can neither coalesce onto a finished
  // job nor have its observer fired with the previous run's status.
  std::vector<Observer> observers;
  JobStatus final_status;
  {
    std::lock_guard lock(mutex_);
    job.state = failed ? JobState::kFailed : JobState::kDone;
    job.error = std::move(error);
    observers = std::move(job.observers);
    job.observers.clear();
    final_status = status_locked(job);
    ++job.observers_firing;
  }
  count(failed ? "scheduler.jobs_failed" : "scheduler.jobs_completed");
  for (const Observer& fire : observers) {
    if (fire) fire(final_status);
  }
  {
    std::lock_guard lock(mutex_);
    --job.observers_firing;
  }
  done_cv_.notify_all();
}

void Scheduler::run_job(Job& job) {
  const std::filesystem::path spool = std::filesystem::path(options_.cache_dir) / "jobs" / job.id;
  const std::string records = spool_records_dir(job.id);
  std::filesystem::create_directories(records);

  OutcomeMap resume;
  try {
    resume = load_resume_outcomes(records, job.header);
  } catch (const std::exception&) {
    // A stale spool (a fingerprint collision, or corruption past the
    // crash-safe tail) must not poison this job: start clean.
    std::filesystem::remove_all(records);
    std::filesystem::create_directories(records);
  }

  // The heartbeat stream poll() derives live progress from. The monitor is
  // purely observational — summary bytes are identical with or without it.
  std::ofstream heartbeat((spool / "heartbeat.jsonl").string(),
                          std::ios::binary | std::ios::trunc);
  telemetry::CampaignMonitor::Options monitor_options;
  monitor_options.period_seconds = options_.heartbeat_period_seconds;
  monitor_options.heartbeat = heartbeat ? &heartbeat : nullptr;
  monitor_options.registry = options_.registry;
  telemetry::CampaignMonitor monitor(monitor_options);

  CampaignResult result;
  if (job.dispatch == JobDispatch::kFabric) {
    result = run_fabric(job, resume);
  } else {
    const int generation = next_generation(records, 0, 1);
    TrialRecordSink sink((std::filesystem::path(records) /
                          record_file_name(0, 1, generation))
                             .string(),
                         job.header);
    RunOptions run_options;
    run_options.threads = options_.threads;
    if (!resume.empty()) run_options.resume = &resume;
    run_options.on_trial = [&sink](std::size_t point, int trial, std::uint64_t seed,
                                   const TrialOutcome& outcome) {
      sink.write(TrialRecord{point, trial, seed, outcome});
    };
    run_options.monitor = &monitor;
    result = options_.executor ? options_.executor(job.spec, run_options)
                               : run(job.spec, run_options);
  }
  monitor.end();
  if (!result.complete) {
    throw std::runtime_error("scheduler: campaign did not complete");
  }

  store_entry(job, result);
  {
    std::lock_guard lock(mutex_);
    job.wall_seconds = result.wall_seconds;
  }
  std::error_code ec;
  std::filesystem::remove_all(spool, ec);  // The cache entry holds the truth now.
  evict();
}

CampaignResult Scheduler::run_fabric(Job& job, const OutcomeMap& resume) {
  using Clock = fabric::CoordinatorCore::Clock;
  const std::chrono::duration<double> max_idle(options_.fabric_max_idle_seconds);
  std::optional<Clock::time_point> first_grant;
  {
    // Workers drive the lease table through fabric_join and fabric_lease;
    // this loop only declares the silent ones dead and waits for the grid.
    std::unique_lock lock(mutex_);
    fabric::CoordinatorCore& core = *job.leases;
    for (const auto& [key, outcome] : resume) core.precommit(key.first, key.second);
    job.leasing = true;
    auto last_live = Clock::now();
    for (;;) {
      const auto now = Clock::now();
      (void)core.expire(now);
      publish_fabric_gauges(core);
      if (core.done()) break;
      if (core.live_workers() > 0) last_live = now;
      const bool idle = max_idle.count() > 0.0 && now - last_live > max_idle;
      if (stopping_ || idle) {
        throw std::runtime_error(
            std::string("scheduler: fabric dispatch ") +
            (idle ? "gave up (no live worker within the idle limit)" : "stopped") + " with " +
            std::to_string(core.committed()) + "/" + std::to_string(core.total()) +
            " trials committed; resubmit to resume (workers stream records into " +
            spool_records_dir(job.id) + ")");
      }
      fabric_cv_.wait_for(lock, std::chrono::milliseconds(100));
    }
    first_grant = job.first_grant;
  }

  // The lease table only schedules; the workers streamed the records into
  // this job's spool. Fold them through the same resume + sequential
  // reduction a single-host run uses — byte-identical summary, and any
  // slot a worker somehow missed is executed locally right here.
  const auto fold_start = Clock::now();
  const OutcomeMap outcomes = load_resume_outcomes(spool_records_dir(job.id), job.header);
  RunOptions run_options;
  run_options.threads = options_.threads;
  if (!outcomes.empty()) run_options.resume = &outcomes;
  CampaignResult result = options_.executor ? options_.executor(job.spec, run_options)
                                            : run(job.spec, run_options);
  // The fold resumes every slot, so its own clock times only the fold.
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - first_grant.value_or(fold_start)).count();
  return result;
}

std::optional<FabricAnswer> Scheduler::fabric_refusal_locked(const std::string& id,
                                                             const Job* job) const {
  FabricAnswer answer;
  if (job == nullptr) {
    // Completed by an earlier daemon over this cache: nothing left to lease.
    if (!artifact_path(id, "summary.json").empty()) {
      answer.kind = FabricAnswer::Kind::kDrain;
    } else {
      answer.kind = FabricAnswer::Kind::kUnknownJob;
      answer.message = "unknown campaign id '" + id + "'";
    }
  } else if (job->state == JobState::kDone) {
    answer.kind = FabricAnswer::Kind::kDrain;
  } else if (job->state == JobState::kFailed) {
    answer.message = "campaign " + id + " failed: " + job->error;
  } else if (!job->leases) {
    answer.message = "campaign " + id + " is not fabric-dispatched";
  } else {
    return std::nullopt;
  }
  return answer;
}

FabricAnswer Scheduler::fabric_join(const std::string& id, const CampaignHeader& theirs) {
  std::lock_guard lock(mutex_);
  const auto it = jobs_.find(id);
  const Job* job = it == jobs_.end() ? nullptr : it->second.get();
  FabricAnswer answer;
  if (job == nullptr) {
    // A worker derives the id from its own spec, so a worker launched with
    // different flags asks for an id nobody submitted: name the field it
    // differs in from each job that is taking workers.
    for (const auto& [other_id, other] : jobs_) {
      if (!other->leases || other->state == JobState::kDone ||
          other->state == JobState::kFailed) {
        continue;
      }
      answer.message += (answer.message.empty() ? "" : "; ") + std::string("campaign ") +
                        other_id + ": " + header_mismatch(other->header, theirs);
    }
    if (!answer.message.empty()) {
      answer.message = "campaign spec mismatch: " + answer.message;
      return answer;
    }
  }
  if (auto refusal = fabric_refusal_locked(id, job)) return *refusal;
  if (const std::string mismatch = header_mismatch(job->header, theirs); !mismatch.empty()) {
    answer.message = "campaign spec mismatch: " + mismatch;  // A fingerprint collision.
    return answer;
  }
  const double deadline = options_.fabric_deadline_seconds;
  answer.kind = FabricAnswer::Kind::kJoined;
  answer.worker = job->leases->connect(fabric::CoordinatorCore::Clock::now());
  answer.deadline_s = deadline;
  answer.heartbeat_s = deadline > 0.0 ? std::min(1.0, deadline / 4.0) : 1.0;
  answer.records_dir = spool_records_dir(id);
  return answer;
}

FabricAnswer Scheduler::fabric_lease(const std::string& id, int worker,
                                     std::optional<std::uint64_t> done, bool heartbeat) {
  std::lock_guard lock(mutex_);
  const auto it = jobs_.find(id);
  Job* job = it == jobs_.end() ? nullptr : it->second.get();
  if (auto refusal = fabric_refusal_locked(id, job)) return *refusal;
  fabric::CoordinatorCore& core = *job->leases;
  const auto now = fabric::CoordinatorCore::Clock::now();
  FabricAnswer answer;
  // Even a worker declared dead meanwhile commits its report: the records
  // are on disk (see fabric/lease.hpp).
  if (done) {
    core.complete(worker, *done, now);
    fabric_cv_.notify_all();
  }
  if (!core.live(worker)) {
    answer.message = "worker " + std::to_string(worker) + " is not live in campaign " + id +
                     " (never joined, or silent past the deadline; its leases were requeued)";
    return answer;
  }
  core.heartbeat(worker, now);
  answer.kind = heartbeat ? FabricAnswer::Kind::kAlive : FabricAnswer::Kind::kWait;
  if (job->leasing && !heartbeat) {
    if (auto lease = core.grant(worker, now)) {
      if (!job->first_grant) job->first_grant = now;
      answer.kind = FabricAnswer::Kind::kGrant;
      answer.lease = *lease;
    } else if (core.done()) {
      answer.kind = FabricAnswer::Kind::kDrain;
    }
  }
  return answer;
}

void Scheduler::publish_fabric_gauges(const fabric::CoordinatorCore& core) const {
  if (options_.registry == nullptr) return;
  const fabric::CoordinatorCore::Stats& stats = core.stats();
  telemetry::Registry& registry = *options_.registry;
  registry.set("fabric.trials_total", static_cast<double>(core.total()));
  registry.set("fabric.trials_committed", static_cast<double>(core.committed()));
  registry.set("fabric.live_workers", static_cast<double>(core.live_workers()));
  registry.set("fabric.pending_leases", static_cast<double>(core.pending()));
  registry.set("fabric.outstanding_leases", static_cast<double>(core.outstanding()));
  registry.set("fabric.workers_seen", static_cast<double>(stats.workers_seen));
  registry.set("fabric.workers_dead", static_cast<double>(stats.workers_dead));
  registry.set("fabric.leases_granted", static_cast<double>(stats.leases_granted));
  registry.set("fabric.leases_completed", static_cast<double>(stats.leases_completed));
  registry.set("fabric.leases_requeued", static_cast<double>(stats.leases_requeued));
  registry.set("fabric.late_completions", static_cast<double>(stats.late_completions));
  registry.set("fabric.duplicate_trials", static_cast<double>(stats.duplicate_trials));
}

void Scheduler::store_entry(const Job& job, const CampaignResult& result) {
  const std::filesystem::path entry = entry_dir(job.id);
  const std::filesystem::path tmp = entry_dir(job.id) + ".tmp";
  std::filesystem::remove_all(tmp);
  std::filesystem::create_directories(tmp);

  write_text(tmp / "header.jsonl", header_line(job.header) + "\n");
  write_text(tmp / "summary.json", to_json(result));
  write_text(tmp / "summary.csv", to_csv(result));
  // Canonical record stream: compaction is deterministic in the record
  // set, so the cached records are byte-identical to `netcons_merge
  // --compact` over the same trials.
  compact_records({spool_records_dir(job.id)}, (tmp / "records.jsonl").string(), &job.header);
  analysis::RecordDistributionBuilder builder =
      analysis::load_distributions({(tmp / "records.jsonl").string()});
  const std::vector<analysis::PointDistributions> dists = builder.build();
  write_text(tmp / "report.json",
             analysis::report_json(builder, dists, analysis::default_report_spec()));

  // Promote atomically: a reader either sees no entry or a complete one.
  // On a fingerprint collision (different header, same hash) last-wins —
  // the header.jsonl guard then classifies the loser as a miss.
  std::filesystem::remove_all(entry);
  std::filesystem::rename(tmp, entry);
}

void Scheduler::evict() {
  if (options_.cache_max_entries == 0) return;
  struct Entry {
    std::filesystem::file_time_type hit_time;
    std::filesystem::path path;
  };
  std::vector<Entry> entries;
  for (const auto& item : std::filesystem::directory_iterator(options_.cache_dir)) {
    if (!item.is_directory()) continue;
    // Only complete entries qualify; the jobs/ spool tree and in-flight
    // .tmp promotions have no summary.json and are never evicted here.
    std::error_code ec;
    const auto hit_time = std::filesystem::last_write_time(item.path() / "summary.json", ec);
    if (ec) continue;
    entries.push_back({hit_time, item.path()});
  }
  if (entries.size() <= options_.cache_max_entries) return;
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.hit_time != b.hit_time ? a.hit_time < b.hit_time : a.path < b.path;
  });
  const std::size_t excess = entries.size() - options_.cache_max_entries;
  for (std::size_t i = 0; i < excess; ++i) {
    std::error_code ec;
    std::filesystem::remove_all(entries[i].path, ec);
    if (!ec) count("scheduler.cache_evictions");
  }
}

}  // namespace netcons::campaign
