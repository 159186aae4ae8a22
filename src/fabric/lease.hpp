// The fabric's lease bookkeeping, transport-free so tests can drive the
// full grant/expiry/reassignment state machine directly with a fake clock.
// The serve-layer Scheduler owns one per fabric-dispatched job and answers
// the workers' HTTP lease calls from it (docs/serving-api.md).
//
// The campaign grid is (points x trials) slots, exactly the slot space of
// campaign::run. Work is handed out as *leases*: a contiguous trial range
// on one grid point, at most `lease_size` trials. A lease is *outstanding*
// from grant until its worker reports done (commit) or the worker is
// declared dead (requeue); commitment is tracked per slot, so completing a
// lease that was already reassigned — or that partially overlaps earlier
// work after a resume — commits only the slots not yet covered. Slots,
// never leases, decide done(): a double-completed range cannot be counted
// twice, and a requeued range cannot be lost.
//
// Liveness: every message from a worker refreshes its timestamp; expire()
// declares workers silent past the deadline dead and moves their
// outstanding leases to the front of the pending queue (reassignment
// before fresh work keeps tail latency bounded). A dead worker's late
// completion still commits its slots — the records are on disk, and trial
// outcomes are position-derived, so duplicated execution merges to the
// same bytes (last-wins record semantics).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

namespace netcons::fabric {

/// A contiguous trial range [begin, end) on one grid point.
struct LeaseRange {
  std::size_t point = 0;
  int begin = 0;
  int end = 0;

  [[nodiscard]] bool operator==(const LeaseRange&) const = default;
  [[nodiscard]] int trials() const noexcept { return end - begin; }
};

struct Lease {
  std::uint64_t id = 0;
  LeaseRange range;
  int worker = 0;
};

struct CoreOptions {
  /// Maximum trials per lease (the work-stealing granularity): small
  /// enough that a dead worker forfeits little, large enough that the
  /// request/grant round-trip amortizes.
  int lease_size = 32;
  /// A worker silent for longer is declared dead and its leases requeued.
  std::chrono::steady_clock::duration deadline = std::chrono::seconds(10);
};

class CoordinatorCore {
 public:
  using Clock = std::chrono::steady_clock;

  CoordinatorCore(std::size_t points, int trials, CoreOptions options);

  /// Mark one slot already committed (resume: outcomes recorded by an
  /// earlier run). Must precede the first grant; out-of-grid slots are
  /// ignored, like RunOptions::resume does.
  void precommit(std::size_t point, int trial);

  /// Register a worker; returns its id (>= 1, never reused).
  [[nodiscard]] int connect(Clock::time_point now);

  /// Any inbound message refreshes the worker's liveness.
  void heartbeat(int worker, Clock::time_point now);

  /// Joined and not (yet) declared dead by expire().
  [[nodiscard]] bool live(int worker) const;

  /// Grant the next lease: requeued ranges first, then fresh ones, in grid
  /// order. nullopt when nothing is pending — either every slot is
  /// committed (done()) or outstanding leases must finish or expire first.
  [[nodiscard]] std::optional<Lease> grant(int worker, Clock::time_point now);

  /// A worker finished its lease. Returns the number of slots newly
  /// committed: 0 for an unknown id, and less than the range for slots
  /// another completion (reassignment, resume) already covered.
  int complete(int worker, std::uint64_t lease_id, Clock::time_point now);

  /// Declare workers silent past the deadline dead; their outstanding
  /// leases go back to the front of the pending queue. Returns the ids.
  [[nodiscard]] std::vector<int> expire(Clock::time_point now);

  [[nodiscard]] bool done() const noexcept { return committed_count_ == slot_count_; }
  [[nodiscard]] std::uint64_t committed() const noexcept { return committed_count_; }
  [[nodiscard]] std::uint64_t total() const noexcept { return slot_count_; }
  [[nodiscard]] std::size_t pending() const noexcept { return pending_.size(); }
  [[nodiscard]] std::size_t outstanding() const noexcept { return outstanding_.size(); }
  [[nodiscard]] std::size_t live_workers() const noexcept;

  struct Stats {
    std::uint64_t leases_granted = 0;
    std::uint64_t leases_completed = 0;   ///< Completions that committed >= 1 slot.
    std::uint64_t leases_requeued = 0;    ///< Ranges sent back by worker death.
    std::uint64_t late_completions = 0;   ///< Done for a lease no longer outstanding.
    std::uint64_t duplicate_trials = 0;   ///< Slots re-executed but already committed.
    std::uint64_t workers_seen = 0;
    std::uint64_t workers_dead = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct WorkerState {
    Clock::time_point last_seen;
    bool alive = true;
  };

  /// Lazily split fresh work into pending ranges on first grant (so every
  /// precommit is in by then).
  void seed_pending();
  void requeue_worker_leases(int worker);
  int commit_range(const LeaseRange& range);

  std::size_t points_;
  int trials_;
  CoreOptions options_;
  std::uint64_t slot_count_ = 0;
  std::uint64_t committed_count_ = 0;
  std::vector<bool> committed_;  ///< point * trials + trial, like campaign::run's slots.
  bool seeded_ = false;
  std::deque<LeaseRange> pending_;
  std::map<std::uint64_t, Lease> outstanding_;
  /// Requeued leases, kept by old id so a late completion still commits.
  std::map<std::uint64_t, LeaseRange> superseded_;
  std::map<int, WorkerState> workers_;
  std::uint64_t next_lease_id_ = 1;
  int next_worker_id_ = 1;
  Stats stats_;
};

}  // namespace netcons::fabric
