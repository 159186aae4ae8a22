// Campaign progress/heartbeat publication.
//
// A CampaignMonitor watches one campaign::run invocation: the engine calls
// begin() with the number of trials this run will execute and the worker
// count, workers report each finished job through record_job(), and end()
// publishes the final state. A background ticker thread emits one
// *heartbeat* every period: a machine-readable JSONL line (consumed live by
// netcons_top, or archived for post-hoc analysis) and/or a one-line
// human-readable progress report on stderr. Each heartbeat carries
// trials-completed, trials/sec, ETA, queue depth (unstarted trials), and
// per-worker utilization (busy fraction since begin()).
//
// Heartbeat JSONL schema (one object per line, "netcons-heartbeat-v1"):
//   {"schema": "netcons-heartbeat-v1", "type": "heartbeat" | "final",
//    "seq": N, "elapsed_s": S, "trials_done": D, "trials_total": T,
//    "trials_per_sec": R, "eta_s": E, "queue_depth": Q, "workers": W,
//    "utilization": [u0, ..., u_{W-1}]}
//
// Determinism contract: the monitor reads atomics and the wall clock, never
// any Rng, and writes only to stderr and its own streams — the campaign's
// summary documents are byte-identical with or without a monitor attached
// (CI-gated).
#pragma once

#include "telemetry/metrics.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string_view>
#include <thread>
#include <vector>

namespace netcons::telemetry {

/// One parsed netcons-heartbeat-v1 line (the schema CampaignMonitor emits).
struct HeartbeatPoint {
  bool final = false;
  std::uint64_t seq = 0;
  double elapsed_s = 0.0;
  std::uint64_t trials_done = 0;
  std::uint64_t trials_total = 0;
  double trials_per_sec = 0.0;
  double eta_s = 0.0;
  std::uint64_t queue_depth = 0;
  std::uint64_t workers = 0;
  std::vector<double> utilization;  ///< Busy fraction per worker slot.

  [[nodiscard]] double mean_utilization() const noexcept;
};

/// Parse one heartbeat line. nullopt on anything that is not a complete
/// netcons-heartbeat-v1 object — malformed JSON (typically the torn tail of
/// a line being written right now), a foreign schema, a missing field —
/// so tailing readers (netcons_top, the serve Scheduler's poll) can skip and
/// retry instead of aborting.
[[nodiscard]] std::optional<HeartbeatPoint> parse_heartbeat_line(std::string_view line);

class CampaignMonitor {
 public:
  struct Options {
    /// Heartbeat cadence; <= 0 disables the ticker thread (begin()/end()
    /// still publish, so a finished run always has at least one line).
    double period_seconds = 2.0;
    /// JSONL heartbeat stream (not owned; may be null). Flushed per line so
    /// a tailing netcons_top sees points live.
    std::ostream* heartbeat = nullptr;
    /// Human-readable progress lines on stderr.
    bool progress_stderr = false;
    /// Campaign gauges/counters published here (not owned; may be null):
    /// campaign.trials_done / campaign.heartbeats counters, and
    /// campaign.trials_total / campaign.trials_per_sec / campaign.eta_s /
    /// campaign.queue_depth / campaign.wall_seconds gauges.
    Registry* registry = nullptr;
  };

  explicit CampaignMonitor(Options options);
  ~CampaignMonitor();

  CampaignMonitor(const CampaignMonitor&) = delete;
  CampaignMonitor& operator=(const CampaignMonitor&) = delete;

  /// Start of one campaign::run invocation: `trials_total` trials scheduled
  /// for execution on `workers` threads. Emits an immediate first heartbeat
  /// and starts the ticker.
  void begin(std::uint64_t trials_total, int workers);

  /// One finished pool job on the calling worker thread: `trials` trials
  /// executed over `busy_seconds` of work. Thread-safe, wait-free: it takes
  /// no lock, so it is cheap enough to call once per trial.
  void record_job(std::uint64_t trials, double busy_seconds);

  /// End of the run: stops the ticker and emits the final heartbeat
  /// ("type": "final"). Idempotent; also invoked by the destructor.
  void end();

  /// Emit one heartbeat now (the ticker's body; exposed for tests).
  void emit_now() { emit(false); }

  [[nodiscard]] std::uint64_t trials_done() const noexcept {
    return trials_done_.load(std::memory_order_relaxed);
  }

 private:
  /// Worker slot of the calling thread, assigned on first use.
  [[nodiscard]] std::size_t worker_slot() noexcept;

  void emit(bool final);
  void ticker_main();

  Options options_;
  const std::uint64_t id_;  ///< Distinguishes monitor instances in thread_local caches.

  std::uint64_t trials_total_ = 0;
  int workers_ = 0;
  std::chrono::steady_clock::time_point start_;
  std::atomic<std::uint64_t> generation_{0};  ///< Bumped per begin().
  std::atomic<std::uint64_t> trials_done_{0};
  std::atomic<std::size_t> next_slot_{0};
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> busy_ns_;
  /// campaign.trials_done, resolved once in begin() (null without a
  /// registry): a registry lookup takes its mutex.
  Counter* trials_done_counter_ = nullptr;

  std::uint64_t seq_ = 0;       ///< Guarded by emit_mutex_.
  std::mutex emit_mutex_;       ///< Serializes heartbeat emission.
  std::mutex ticker_mutex_;     ///< Guards stop_ for the cv.
  std::condition_variable ticker_cv_;
  bool stop_ = true;
  std::thread ticker_;
};

}  // namespace netcons::telemetry
