#include "fabric/lease.hpp"

#include <algorithm>

namespace netcons::fabric {

CoordinatorCore::CoordinatorCore(std::size_t points, int trials, CoreOptions options)
    : points_(points),
      trials_(trials < 0 ? 0 : trials),
      options_(options),
      slot_count_(static_cast<std::uint64_t>(points) * static_cast<std::uint64_t>(trials_)),
      committed_(slot_count_, false) {
  if (options_.lease_size < 1) options_.lease_size = 1;
}

void CoordinatorCore::precommit(std::size_t point, int trial) {
  if (seeded_) return;  // too late to matter: the slot is already in a pending range
  if (point >= points_ || trial < 0 || trial >= trials_) return;
  const std::uint64_t slot = point * static_cast<std::uint64_t>(trials_) + trial;
  if (!committed_[slot]) {
    committed_[slot] = true;
    ++committed_count_;
  }
}

int CoordinatorCore::connect(Clock::time_point now) {
  const int id = next_worker_id_++;
  workers_[id] = WorkerState{now, true};
  ++stats_.workers_seen;
  return id;
}

void CoordinatorCore::heartbeat(int worker, Clock::time_point now) {
  const auto it = workers_.find(worker);
  if (it != workers_.end() && it->second.alive) it->second.last_seen = now;
}

bool CoordinatorCore::live(int worker) const {
  const auto it = workers_.find(worker);
  return it != workers_.end() && it->second.alive;
}

void CoordinatorCore::seed_pending() {
  seeded_ = true;
  // Walk the grid in slot order and coalesce runs of uncommitted slots into
  // ranges of at most lease_size. Grid order keeps a fault-free run's grant
  // sequence deterministic (modulo which worker asks first).
  for (std::size_t p = 0; p < points_; ++p) {
    int begin = -1;
    for (int t = 0; t <= trials_; ++t) {
      const bool open =
          t < trials_ && !committed_[p * static_cast<std::uint64_t>(trials_) + t];
      if (open && begin < 0) begin = t;
      if (!open && begin >= 0) {
        for (int b = begin; b < t; b += options_.lease_size) {
          pending_.push_back(LeaseRange{p, b, std::min(t, b + options_.lease_size)});
        }
        begin = -1;
      }
    }
  }
}

std::optional<Lease> CoordinatorCore::grant(int worker, Clock::time_point now) {
  heartbeat(worker, now);
  if (!seeded_) seed_pending();
  while (!pending_.empty()) {
    LeaseRange range = pending_.front();
    pending_.pop_front();
    // A requeued range may have been committed since (late completion by
    // the worker it was taken from); skip the covered prefix/suffix rather
    // than re-running trials for nothing.
    const std::uint64_t base = range.point * static_cast<std::uint64_t>(trials_);
    while (range.begin < range.end && committed_[base + range.begin]) ++range.begin;
    while (range.end > range.begin && committed_[base + range.end - 1]) --range.end;
    if (range.trials() <= 0) continue;
    Lease lease{next_lease_id_++, range, worker};
    outstanding_[lease.id] = lease;
    ++stats_.leases_granted;
    return lease;
  }
  return std::nullopt;
}

int CoordinatorCore::commit_range(const LeaseRange& range) {
  int fresh = 0;
  const std::uint64_t base = range.point * static_cast<std::uint64_t>(trials_);
  for (int t = range.begin; t < range.end; ++t) {
    if (committed_[base + t]) {
      ++stats_.duplicate_trials;
    } else {
      committed_[base + t] = true;
      ++committed_count_;
      ++fresh;
    }
  }
  return fresh;
}

int CoordinatorCore::complete(int worker, std::uint64_t lease_id, Clock::time_point now) {
  heartbeat(worker, now);
  const auto it = outstanding_.find(lease_id);
  if (it == outstanding_.end()) {
    // The lease was requeued (its worker was declared dead) and possibly
    // re-granted under a new id — but this completion's records are on
    // disk, and last-wins dedup makes them as good as anyone's. Committing
    // here is what makes double-completion harmless rather than fatal.
    const auto late = superseded_.find(lease_id);
    if (late == superseded_.end()) return 0;
    ++stats_.late_completions;
    const int fresh = commit_range(late->second);
    superseded_.erase(late);
    if (fresh > 0) ++stats_.leases_completed;
    return fresh;
  }
  const LeaseRange range = it->second.range;
  outstanding_.erase(it);
  const int fresh = commit_range(range);
  if (fresh > 0) ++stats_.leases_completed;
  return fresh;
}

void CoordinatorCore::requeue_worker_leases(int worker) {
  if (!seeded_) seed_pending();
  std::vector<std::uint64_t> ids;
  for (const auto& [id, lease] : outstanding_) {
    if (lease.worker == worker) ids.push_back(id);
  }
  // Front of the queue: a range someone already started is the campaign's
  // critical path, so it must beat fresh work to the next free worker.
  for (auto rit = ids.rbegin(); rit != ids.rend(); ++rit) {
    const auto it = outstanding_.find(*rit);
    pending_.push_front(it->second.range);
    superseded_[*rit] = it->second.range;
    outstanding_.erase(it);
    ++stats_.leases_requeued;
  }
}

std::vector<int> CoordinatorCore::expire(Clock::time_point now) {
  std::vector<int> dead;
  for (auto& [id, state] : workers_) {
    if (state.alive && now - state.last_seen > options_.deadline) {
      state.alive = false;
      ++stats_.workers_dead;
      requeue_worker_leases(id);
      dead.push_back(id);
    }
  }
  return dead;
}

std::size_t CoordinatorCore::live_workers() const noexcept {
  std::size_t count = 0;
  for (const auto& [id, state] : workers_) {
    if (state.alive) ++count;
  }
  return count;
}

}  // namespace netcons::fabric
