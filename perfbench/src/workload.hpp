// What every workload shares: its options, its result, the metric name
// tables (which must equal BENCHMARK.json's), and the per-layer figures
// derived from a trace.
#pragma once

#include "trace.hpp"

#include "campaign/campaign.hpp"

#include <array>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace netcons::telemetry {
class Registry;
}  // namespace netcons::telemetry

namespace perfbench {

class TrialLog;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;         ///< Length of the timed window (required).
  bool traced = false;
  int threads = 4;              ///< min(nproc, 4): campaign threads; serve-mixed uses half.
  std::filesystem::path work;   ///< Scratch directory (records, caches).
  std::filesystem::path trace;  ///< Traced runs write their spans here.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;  ///< Trials and requests.
  std::uint64_t failed = 0;     ///< Errors and byte mismatches among them.
  std::vector<Metric> metrics;  ///< The JSON metrics, in table order.
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

struct MetricName {
  std::string_view name;
  std::string_view unit;
};

/// Untraced runs emit exactly these (BENCHMARK.json "end_to_end").
inline constexpr std::array<MetricName, 9> kEndToEnd{{
    {"setup_s", "s"},
    {"trials_per_s", "1/s"},
    {"trial_ms_p50", "ms"},
    {"trial_ms_p90", "ms"},
    {"peak_rss_mb", "MB"},
    {"req_per_s", "1/s"},
    {"req_ms_p50", "ms"},
    {"req_ms_p90", "ms"},
    {"miss_ms_p50", "ms"},
}};

/// Traced runs emit exactly these (BENCHMARK.json "per_layer"): the layer
/// figures every workload produces. Figures that exist on some workloads
/// only are printed in the traced run's table (see METRICS.md).
inline constexpr std::array<MetricName, 24> kPerLayer{{
    {"core.engine_setup_ms", "ms"},
    {"core.simulate_ms", "ms"},
    {"core.ns_per_eff.census_uniform", "ns"},
    {"core.steps", "count"},
    {"core.effective_steps", "count"},
    {"census.full_rebuilds", "count"},
    {"census.delta_updates", "count"},
    {"census.alias_rebuilds", "count"},
    {"census.weighted_accept_ratio", "ratio"},
    {"graph.output_graph_ms", "ms"},
    {"graph.target_ms", "ms"},
    {"graph.target_frac", "ratio"},
    {"graph.bytes", "bytes"},
    {"campaign.idle_frac", "ratio"},
    {"campaign.record_write_us", "us"},
    {"campaign.record_bytes", "bytes"},
    {"campaign.reduce_ms", "ms"},
    {"campaign.summary_ms", "ms"},
    {"campaign.merge_ms", "ms"},
    {"analysis.report_ms", "ms"},
    {"analysis.records_per_s", "1/s"},
    {"serve.hit_ratio", "ratio"},
    {"serve.http_errors", "count"},
    {"trace_overhead_frac", "ratio"},
}};

inline constexpr std::array<std::string_view, 3> kWorkloads{"large-n", "paper-sweep",
                                                            "serve-mixed"};

/// Per-layer figures derived from the spans of one traced window.
struct Layers {
  double engine_setup_ms = 0;  ///< Mean self time per trial (weight model excluded).
  double simulate_ms = 0;      ///< Mean self time per trial (certificates excluded).
  double ns_per_eff_uniform = 0;
  double ns_per_eff_weighted = 0;
  double ns_per_step_naive = 0;
  double model_build_ms = 0;  ///< Mean per weight_model() call.
  std::uint64_t model_builds = 0;
  double certificate_ms = 0;  ///< Total.
  std::uint64_t certificate_calls = 0;
  double output_graph_ms = 0;  ///< Mean per target check.
  double target_ms = 0;        ///< Mean per target check.
  double target_frac = 0;      ///< Σ target / Σ trial.
  std::uint64_t graph_bytes = 0;  ///< Largest output graph handed to a target.
  double record_write_us = 0;
  double record_bytes = 0;
  std::uint64_t record_writes = 0;
  std::uint64_t steps = 0;
  std::uint64_t effective_steps = 0;
  std::uint64_t trials = 0;
  double trial_busy_s = 0;
  /// Per grid unit: (Σ target s, Σ trial s) -- the target share per protocol.
  std::map<std::string, std::pair<double, double>> target_by_unit;
  /// Mean ms of every other span name ("reduce", "http.post", ...), and
  /// their samples for percentiles.
  std::map<std::string, std::vector<double>> other_ms;
};

/// Derive the layer figures from the spans that began in [from_ns, to_ns).
[[nodiscard]] Layers derive_layers(const std::vector<trace::Span>& spans, std::int64_t from_ns,
                                   std::int64_t to_ns);

/// Mean and sum of other_ms[name] (0 when the span never occurred).
[[nodiscard]] double mean_ms(const Layers& layers, const std::string& name);
[[nodiscard]] double total_ms(const Layers& layers, const std::string& name);

/// Everything a traced run reports.
struct LayerReport {
  Layers window;     ///< Spans of the measured (traced) work.
  Layers reference;  ///< The reference batch: exact counts for a seed.
  Layers artifacts;  ///< Spans of the summary/merge/report calls.
  netcons::telemetry::Registry* counters = nullptr;  ///< census.* of the reference batch.
  /// Pool wall time the trials in `window` ran in (Σ campaign::run walls).
  double pool_wall_s = 0;
  int threads = 1;
  double overhead = 0;  ///< Traced / untraced wall time - 1 (median).
  std::uint64_t overhead_samples = 0;
  double hit_ratio = 0;
  std::uint64_t http_errors = 0;
};

/// Print the traced run's table (every per-layer figure, including those
/// this workload alone produces) and add the kPerLayer JSON metrics.
void emit_layers(Result& out, const std::string& workload, const LayerReport& report);

/// "%.*f" formatting for the human-readable lines.
[[nodiscard]] std::string fixed(double value, int digits = 3);

/// Peak resident set of this process, MB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// Write the traced run's spans as a Chrome trace (best effort: a failure
/// is reported on stderr, never fatal).
void write_trace(const Options& options, const std::vector<trace::Span>& spans);

/// Print one human-readable line (stdout; the JSON result is the last line).
void say(const std::string& line);

/// One campaign executed the way a user runs it: campaign::run streaming
/// every trial to a record file through a TrialRecordSink, the summary
/// built in memory, the same summary rebuilt from the records
/// (load_records + reduce_outcomes), and the report over the records.
struct LegRun {
  std::string summary;  ///< to_json of the in-memory result.
  std::string report;   ///< report_json over the record file.
  std::uint64_t trials = 0;
  std::uint64_t failed_trials = 0;  ///< Not stabilized, or the target missed.
  bool rebuilt_matches = false;     ///< Rebuilt summary == in-memory summary, byte for byte.
  double campaign_s = 0;            ///< Wall time of campaign::run.
};

/// Run `spec` (already instrumented or not) with `threads` workers,
/// streaming records to `records`. Each trial's time goes to `log` when
/// non-null.
[[nodiscard]] LegRun run_leg(const netcons::campaign::CampaignSpec& spec,
                             const std::filesystem::path& records, int threads,
                             TrialLog* log);

/// A reproducible 64-bit mix of the run seed and a stream position.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a,
                                     std::uint64_t b = 0) noexcept;

/// Counter value from a registry (0 when it was never published).
[[nodiscard]] std::uint64_t counter_value(netcons::telemetry::Registry& registry,
                                          std::string_view name);

Result run_large_n(const Options& options);
Result run_paper_sweep(const Options& options);
Result run_serve_mixed(const Options& options);

}  // namespace perfbench
