#include "campaign/scheduler.hpp"

#include "analysis/report.hpp"
#include "campaign/result_sink.hpp"
#include "fabric/coordinator.hpp"
#include "telemetry/heartbeat.hpp"
#include "telemetry/metrics.hpp"

#include <algorithm>
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
/// the other tailing readers (netcons_top, the fabric coordinator).
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
  int fabric_port = -1;
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
  status.wall_seconds = job.wall_seconds;
  status.fabric_port = job.fabric_port;
  if (job.state == JobState::kQueued || job.state == JobState::kRunning) {
    status.records_dir = spool_records_dir(job.id);
  }
  status.error = job.error;
  return status;
}

void Scheduler::count(std::string_view name) const {
  if (options_.registry != nullptr) options_.registry->add(name);
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
            job.state = JobState::kQueued;
            job.error.clear();
            job.dispatch = dispatch;
            if (observer) job.observers.push_back(std::move(observer));
            queue_.push_back(it->second);
            count("scheduler.cache_misses");
            work_cv_.notify_one();
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
          job.state = JobState::kQueued;
          job.error.clear();
          job.dispatch = dispatch;
          if (observer) job.observers.push_back(std::move(observer));
          queue_.push_back(it->second);
          count("scheduler.retries");
          work_cv_.notify_one();
          return submitted;
      }
    } else if (cache_entry_matches(id, header)) {
      submitted.cached = true;
      JobStatus status;
      status.id = id;
      status.state = JobState::kDone;
      status.cached = true;
      status.trials_total = static_cast<std::uint64_t>(header.points.size()) *
                            static_cast<std::uint64_t>(header.trials);
      status.trials_done = status.trials_total;
      immediate = status;
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
      job->dispatch = dispatch;
      if (observer) job->observers.push_back(std::move(observer));
      jobs_.emplace(id, job);
      queue_.push_back(std::move(job));
      count("scheduler.cache_misses");
      work_cv_.notify_one();
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
      if (status.state == JobState::kRunning) {
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
      const CampaignHeader header = parse_header_line(line);
      status.id = id;
      status.state = JobState::kDone;
      status.cached = true;
      status.trials_total = static_cast<std::uint64_t>(header.points.size()) *
                            static_cast<std::uint64_t>(header.trials);
      status.trials_done = status.trials_total;
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
  fabric::CoordinatorOptions coordinator_options;
  coordinator_options.host = options_.fabric_host;
  coordinator_options.port = 0;
  coordinator_options.lease_size = options_.fabric_lease_size;
  coordinator_options.deadline_seconds = options_.fabric_deadline_seconds;
  coordinator_options.max_idle_seconds = options_.fabric_max_idle_seconds;
  coordinator_options.quiet = true;
  coordinator_options.registry = options_.registry;
  coordinator_options.on_listening = [this, &job](int port) {
    std::lock_guard lock(mutex_);
    job.fabric_port = port;
  };

  fabric::CoordinatorSummary summary;
  try {
    fabric::Coordinator coordinator(job.header, resume.empty() ? nullptr : &resume,
                                    coordinator_options);
    summary = coordinator.serve();
  } catch (...) {
    std::lock_guard lock(mutex_);
    job.fabric_port = -1;
    throw;
  }
  {
    std::lock_guard lock(mutex_);
    job.fabric_port = -1;
  }
  if (!summary.complete) {
    throw std::runtime_error(
        "scheduler: fabric dispatch gave up with " + std::to_string(summary.trials_committed) +
        "/" + std::to_string(summary.trials_total) +
        " trials committed; resubmit to resume (workers stream records into " +
        spool_records_dir(job.id) + ")");
  }

  // The coordinator only schedules; the workers streamed the records into
  // this job's spool. Fold them through the same resume + sequential
  // reduction a single-host run uses — byte-identical summary, and any
  // slot a worker somehow missed is executed locally right here.
  const OutcomeMap outcomes = load_resume_outcomes(spool_records_dir(job.id), job.header);
  RunOptions run_options;
  run_options.threads = options_.threads;
  if (!outcomes.empty()) run_options.resume = &outcomes;
  return options_.executor ? options_.executor(job.spec, run_options)
                           : run(job.spec, run_options);
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
