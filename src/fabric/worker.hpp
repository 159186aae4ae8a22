// The fabric worker: an HTTP client of netcons_serve. It derives the job
// id from its own spec (spec_fingerprint), joins the daemon's
// "dispatch": "fabric" job with its netcons-trials-v2 header line (the
// daemon diffs it against the job's and refuses a mismatch, naming the
// field), then loops lease → execute → report done with the next lease
// call until the daemon answers drain. Wire spec: docs/serving-api.md.
//
// Each granted lease executes as one campaign::run invocation with
// RunOptions::select restricted to the leased trial range, so engines,
// fault plans, schedulers, per-trial seeds, and telemetry flow through the
// exact single-host code path — the fabric adds scheduling, never
// semantics. Outcomes stream to a per-worker record file
// (fabric-wNNNN-gNNNN.jsonl) in the job's spool directory, which the join
// reply names; the worker must share that filesystem with the daemon.
//
// Liveness: a ticker thread POSTs a heartbeat at the cadence the join
// reply set, so a lease that runs longer than the deadline never looks
// like a death.
#pragma once

#include "campaign/campaign.hpp"

#include <cstdint>
#include <string>

namespace netcons::fabric {

struct WorkerOptions {
  std::string host = "127.0.0.1";
  int port = 0;     ///< The netcons_serve daemon's HTTP port.
  int threads = 0;  ///< 0: hardware concurrency.
  /// Socket I/O timeout per call: a daemon silent this long is treated as
  /// dead and the worker exits with an error (0: block forever).
  double io_timeout_seconds = 30.0;
  /// Sent as "Authorization: Bearer <token>" when non-empty; must match
  /// the daemon's --token.
  std::string token;
  bool quiet = false;  ///< Suppress per-lease progress lines on stderr.
};

struct WorkerSummary {
  int worker = 0;  ///< Daemon-assigned id (0 when the job was already done).
  std::uint64_t leases = 0;
  std::uint64_t executed_trials = 0;
  bool drained = false;  ///< True: clean drain; false never returns (throws).
};

/// Run the worker loop to completion. Throws std::runtime_error on
/// connection failure, a daemon refusal (unknown job, spec mismatch, a
/// failed job, this worker declared dead), or a daemon that vanished.
[[nodiscard]] WorkerSummary run_worker(const campaign::CampaignSpec& spec,
                                       const WorkerOptions& options);

}  // namespace netcons::fabric
