#include "telemetry/heartbeat.hpp"

#include "campaign/json.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace netcons::telemetry {

namespace {

std::atomic<std::uint64_t> g_next_monitor_id{1};

}  // namespace

double HeartbeatPoint::mean_utilization() const noexcept {
  if (utilization.empty()) return 0.0;
  double sum = 0.0;
  for (const double u : utilization) sum += u;
  return sum / static_cast<double>(utilization.size());
}

std::optional<HeartbeatPoint> parse_heartbeat_line(std::string_view line) {
  namespace json = campaign::json;
  try {
    const json::Value document = json::parse(line);
    const json::Object& object = document.as_object();
    if (json::field(object, "schema").as_string() != "netcons-heartbeat-v1") {
      return std::nullopt;
    }
    HeartbeatPoint point;
    point.final = json::field(object, "type").as_string() == "final";
    point.seq = json::field(object, "seq").as_u64();
    point.elapsed_s = json::field(object, "elapsed_s").as_double();
    point.trials_done = json::field(object, "trials_done").as_u64();
    point.trials_total = json::field(object, "trials_total").as_u64();
    point.trials_per_sec = json::field(object, "trials_per_sec").as_double();
    point.eta_s = json::field(object, "eta_s").as_double();
    point.queue_depth = json::field(object, "queue_depth").as_u64();
    point.workers = json::field(object, "workers").as_u64();
    for (const json::Value& u : json::field(object, "utilization").as_array()) {
      point.utilization.push_back(u.as_double());
    }
    return point;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

CampaignMonitor::CampaignMonitor(Options options)
    : options_(options), id_(g_next_monitor_id.fetch_add(1, std::memory_order_relaxed)) {}

CampaignMonitor::~CampaignMonitor() { end(); }

void CampaignMonitor::begin(std::uint64_t trials_total, int workers) {
  end();  // a monitor may watch several runs back to back
  generation_.fetch_add(1, std::memory_order_relaxed);
  trials_total_ = trials_total;
  workers_ = std::max(workers, 1);
  start_ = std::chrono::steady_clock::now();
  trials_done_.store(0, std::memory_order_relaxed);
  next_slot_.store(0, std::memory_order_relaxed);
  busy_ns_.clear();
  for (int w = 0; w < workers_; ++w) {
    busy_ns_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
  }
  if (options_.registry != nullptr) {
    // Register the campaign metrics up front so a snapshot taken at any
    // point carries the full key set.
    trials_done_counter_ = &options_.registry->counter("campaign.trials_done");
    trials_done_counter_->add(0);
    options_.registry->counter("campaign.heartbeats").add(0);
    options_.registry->set("campaign.trials_total", static_cast<double>(trials_total_));
    options_.registry->set("campaign.workers", static_cast<double>(workers_));
  }
  emit(false);
  if (options_.period_seconds > 0.0 &&
      (options_.heartbeat != nullptr || options_.progress_stderr)) {
    const std::lock_guard<std::mutex> lock(ticker_mutex_);
    stop_ = false;
    ticker_ = std::thread([this] { ticker_main(); });
  }
}

std::size_t CampaignMonitor::worker_slot() noexcept {
  // Slot cached per (thread, monitor incarnation): the incarnation check
  // keeps a slot assigned under a previous monitor — or a previous begin()
  // of this one — from leaking into this run's utilization array.
  thread_local std::uint64_t cached_incarnation = 0;
  thread_local std::size_t slot = 0;
  const std::uint64_t incarnation =
      id_ * (1u << 20) + generation_.load(std::memory_order_relaxed);
  if (cached_incarnation != incarnation) {
    // Modulo guards against more reporting threads than declared workers
    // (two threads then share a slot; utilization stays bounded).
    slot = next_slot_.fetch_add(1, std::memory_order_relaxed) %
           static_cast<std::size_t>(workers_);
    cached_incarnation = incarnation;
  }
  return slot;
}

void CampaignMonitor::record_job(std::uint64_t trials, double busy_seconds) {
  trials_done_.fetch_add(trials, std::memory_order_relaxed);
  const std::size_t slot = worker_slot();
  busy_ns_[slot]->fetch_add(static_cast<std::uint64_t>(busy_seconds * 1e9),
                            std::memory_order_relaxed);
  if (trials_done_counter_ != nullptr) trials_done_counter_->add(trials);
}

void CampaignMonitor::ticker_main() {
  std::unique_lock<std::mutex> lock(ticker_mutex_);
  const auto period = std::chrono::duration<double>(options_.period_seconds);
  while (!stop_) {
    if (ticker_cv_.wait_for(lock, period, [this] { return stop_; })) break;
    lock.unlock();
    emit(false);
    lock.lock();
  }
}

void CampaignMonitor::end() {
  {
    const std::lock_guard<std::mutex> lock(ticker_mutex_);
    stop_ = true;
  }
  ticker_cv_.notify_all();
  if (ticker_.joinable()) ticker_.join();
  // Only the first end() after a begin() emits the "final" point.
  if (workers_ > 0) {
    emit(true);
    workers_ = 0;
  }
}

void CampaignMonitor::emit(bool final) {
  const std::lock_guard<std::mutex> lock(emit_mutex_);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  const std::uint64_t done = trials_done_.load(std::memory_order_relaxed);
  const std::uint64_t total = trials_total_;
  const double rate = elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
  const std::uint64_t remaining = total > done ? total - done : 0;
  const double eta = rate > 0.0 ? static_cast<double>(remaining) / rate : 0.0;

  std::vector<double> utilization;
  double busy_total = 0.0;
  utilization.reserve(busy_ns_.size());
  for (const auto& busy : busy_ns_) {
    const double busy_s = static_cast<double>(busy->load(std::memory_order_relaxed)) * 1e-9;
    busy_total += busy_s;
    utilization.push_back(elapsed > 0.0 ? std::min(busy_s / elapsed, 1.0) : 0.0);
  }
  const double mean_utilization =
      utilization.empty()
          ? 0.0
          : std::min(busy_total / (elapsed > 0.0 ? elapsed : 1.0) /
                         static_cast<double>(utilization.size()),
                     1.0);

  if (options_.heartbeat != nullptr) {
    std::string line = "{\"schema\": \"netcons-heartbeat-v1\", \"type\": \"";
    line += final ? "final" : "heartbeat";
    line += "\", \"seq\": " + std::to_string(seq_);
    line += ", \"elapsed_s\": ";
    campaign::json::append_double(line, elapsed);
    line += ", \"trials_done\": " + std::to_string(done);
    line += ", \"trials_total\": " + std::to_string(total);
    line += ", \"trials_per_sec\": ";
    campaign::json::append_double(line, rate);
    line += ", \"eta_s\": ";
    campaign::json::append_double(line, eta);
    line += ", \"queue_depth\": " + std::to_string(remaining);
    line += ", \"workers\": " + std::to_string(workers_ > 0 ? workers_ : 0);
    line += ", \"utilization\": [";
    for (std::size_t i = 0; i < utilization.size(); ++i) {
      if (i > 0) line += ", ";
      campaign::json::append_double(line, utilization[i]);
    }
    line += "]}\n";
    (*options_.heartbeat) << line << std::flush;
  }

  if (options_.progress_stderr) {
    const double percent =
        total > 0 ? 100.0 * static_cast<double>(done) / static_cast<double>(total) : 100.0;
    std::fprintf(stderr,
                 "[campaign] %" PRIu64 "/%" PRIu64 " trials (%.1f%%), %.1f trials/s, "
                 "eta %.0fs, util %.0f%%%s\n",
                 done, total, percent, rate, eta, 100.0 * mean_utilization,
                 final ? ", done" : "");
  }

  if (options_.registry != nullptr) {
    options_.registry->counter("campaign.heartbeats").add(1);
    options_.registry->set("campaign.trials_per_sec", rate);
    options_.registry->set("campaign.eta_s", eta);
    options_.registry->set("campaign.queue_depth", static_cast<double>(remaining));
    options_.registry->set("campaign.wall_seconds", elapsed);
    options_.registry->set("campaign.utilization", mean_utilization);
  }
  ++seq_;
}

}  // namespace netcons::telemetry
