// Timing wrappers around the library's public seams. Every layer is timed
// from outside: a campaign spec is copied with its callables wrapped, and
// the engine and scheduler a trial builds are wrapped in forwarding
// decorators. Nothing inside libnetcons changes.
//
// The untraced runs use only the trial clock (one timestamp per trial,
// taken when the campaign engine builds the trial's scheduler, read in the
// on_trial observer). The traced runs add the span-recording wrappers.
#pragma once

#include "trace.hpp"

#include "campaign/campaign.hpp"

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace netcons::telemetry {
class Registry;
}  // namespace netcons::telemetry

namespace perfbench {

/// Trial wall times (ms) gathered from campaign observers; thread-safe.
class TrialLog {
 public:
  void add(double ms, double start_s);
  /// Times of trials that started at or after `since_s` (steady seconds).
  [[nodiscard]] std::vector<double> since(double since_s) const;
  [[nodiscard]] std::vector<double> all() const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<double> ms_;
  std::vector<double> start_s_;
};

/// Steady-clock seconds (the benchmark's one clock).
[[nodiscard]] double now_s() noexcept;

/// Called from on_trial on the trial's worker thread: closes the trial
/// clock (and, traced, the trial span labelled `unit`) and logs the time.
void finish_trial(TrialLog& log, const std::string& unit);

/// Bytes of the dense output Graph the target predicate receives at
/// population n (computed from graph/graph.cpp's layout, not measured).
[[nodiscard]] std::uint64_t dense_graph_bytes(int n) noexcept;

/// Registry the traced engines publish their census.* / engine.* counters
/// into after each run_until_stable (null: no publication).
void set_publish_registry(netcons::telemetry::Registry* registry) noexcept;

/// A copy of `spec` whose scheduler factories start the trial clock; when
/// `traced`, its target/certificate callables, engines and schedulers are
/// also wrapped in span-recording decorators.
[[nodiscard]] netcons::campaign::CampaignSpec instrument(
    const netcons::campaign::CampaignSpec& spec, bool traced);

}  // namespace perfbench
