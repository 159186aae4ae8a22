// The two campaign workloads, `large-n` and `paper-sweep`. Both run in
// rounds: a round is a fixed set of campaigns whose seeds derive from the
// run seed and the round index, each executed by run_leg exactly as a user
// runs a campaign with --records and then merges and reports it.
#include "instrument.hpp"
#include "workload.hpp"

#include "analysis/report.hpp"
#include "campaign/result_sink.hpp"
#include "campaign/spec_cli.hpp"
#include "campaign/trial_record.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"

#include <atomic>
#include <stdexcept>

namespace perfbench {

namespace fs = std::filesystem;
using netcons::campaign::CampaignSpec;
using netcons::campaign::SpecCli;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t state = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^ (b * 0xc2b2ae3d27d4eb4fULL);
  return netcons::splitmix64(state);
}

std::uint64_t counter_value(netcons::telemetry::Registry& registry, std::string_view name) {
  return registry.counter(name).value();
}

LegRun run_leg(const CampaignSpec& spec, const fs::path& records, int threads, TrialLog* log) {
  namespace campaign = netcons::campaign;
  const campaign::CampaignHeader header = campaign::CampaignHeader::describe(spec);
  const std::vector<campaign::GridPoint> grid = campaign::expand_grid(spec);

  LegRun out;
  std::atomic<std::uint64_t> failed{0};
  campaign::CampaignResult result;
  {
    campaign::TrialRecordSink sink(records.string(), header);
    campaign::RunOptions options;
    options.threads = threads;
    options.on_trial = [&](std::size_t point, int trial, std::uint64_t seed,
                           const campaign::TrialOutcome& outcome) {
      if (log != nullptr) finish_trial(*log, grid[point].unit);
      if (!outcome.success || !outcome.target_ok) failed.fetch_add(1);
      const campaign::TrialRecord record{point, trial, seed, outcome};
      const std::size_t bytes = trace::enabled() ? campaign::record_line(record).size() + 1 : 0;
      trace::Scope scope("record_write");
      if (scope.active()) scope.span().bytes = bytes;
      sink.write(record);
    };
    const double start = now_s();
    {
      const trace::Scope scope("campaign");
      result = campaign::run(spec, options);
    }
    out.campaign_s = now_s() - start;
  }
  out.trials = result.executed_trials;
  out.failed_trials = failed.load();
  if (!result.complete) throw std::runtime_error("campaign did not complete");

  {
    const trace::Scope scope("summary");
    out.summary = campaign::to_json(result);
    (void)campaign::to_csv(result);
  }

  // The summary again, from the records alone (what netcons_merge does).
  campaign::LoadedRecords loaded;
  {
    const trace::Scope scope("merge");
    campaign::load_records(records.string(), loaded);
  }
  std::vector<std::vector<campaign::TrialOutcome>> slots(grid.size());
  for (auto& slot : slots) slot.resize(static_cast<std::size_t>(spec.trials));
  bool filled = loaded.outcomes.size() == grid.size() * static_cast<std::size_t>(spec.trials);
  for (const auto& [key, outcome] : loaded.outcomes) {
    if (key.first >= grid.size() || key.second < 0 || key.second >= spec.trials) {
      filled = false;
      continue;
    }
    slots[key.first][static_cast<std::size_t>(key.second)] = outcome;
  }
  campaign::CampaignResult reduced;
  {
    const trace::Scope scope("reduce");
    reduced = campaign::reduce_outcomes(grid, spec.trials, slots);
  }
  std::string rebuilt;
  {
    const trace::Scope scope("summary");
    rebuilt = campaign::to_json(reduced);
  }
  out.rebuilt_matches = filled && rebuilt == out.summary;

  {
    const trace::Scope scope("report");
    const netcons::analysis::RecordDistributionBuilder builder =
        netcons::analysis::load_distributions({records.string()});
    const std::vector<netcons::analysis::PointDistributions> dists = builder.build();
    out.report =
        netcons::analysis::report_json(builder, dists, netcons::analysis::default_report_spec());
  }
  return out;
}

namespace {

constexpr int kSetupRepeats = 9;

/// The campaigns of one round. Seeds derive from (run seed, round, leg).
/// SGL and Global-Ring stay far below n = 3105, where their 64 n^5 step
/// budget wraps; k-RC/2RC are left out (see README.md).
std::vector<SpecCli> round_legs(const std::string& workload, std::uint64_t seed, int round) {
  std::vector<SpecCli> legs;
  const auto leg = [&](std::vector<std::string> protocols, std::vector<int> ns,
                       std::string engine, std::string scheduler, int trials) {
    SpecCli cli;
    cli.protocols = std::move(protocols);
    cli.ns = std::move(ns);
    cli.engines = {std::move(engine)};
    cli.schedulers = {std::move(scheduler)};
    cli.trials = trials;
    cli.seed = mix_seed(seed, static_cast<std::uint64_t>(round), legs.size());
    legs.push_back(std::move(cli));
  };
  if (workload == "large-n") {
    // 1 Cycle-Cover : 3 Global-Star trials. The two trial-time modes are
    // ~4x apart, so the median stays in the Global-Star mode and p90 in the
    // Cycle-Cover mode instead of falling between them.
    leg({"cycle-cover"}, {16384}, "census", "uniform", 4);
    leg({"global-star"}, {16384}, "census", "uniform", 12);
  } else {
    const std::vector<std::string> five = {"simple-global-line", "global-ring", "global-star",
                                           "fast-global-line", "cycle-cover"};
    // 4:1 trials uniform:proximity keeps each census path >= 25% of the
    // campaign time (at equal counts the weighted path is ~80%).
    leg(five, {128, 256, 512}, "census", "uniform", 20);
    leg(five, {128, 256, 512}, "census", "proximity", 5);
    leg(five, {64}, "naive", "uniform", 12);
  }
  return legs;
}

std::vector<CampaignSpec> build_specs(const std::vector<SpecCli>& legs) {
  std::vector<CampaignSpec> specs;
  for (const SpecCli& cli : legs) {
    std::optional<CampaignSpec> spec = netcons::campaign::build_spec(cli);
    if (!spec) throw std::runtime_error("perfbench: a workload spec failed to build");
    specs.push_back(std::move(*spec));
  }
  return specs;
}

/// Set-up: resolve the round's specs through the registries and build one
/// engine per grid point, so every allocation path a trial takes has run
/// once before the clock starts.
double set_up(const Options& options) {
  const double start = now_s();
  const std::vector<CampaignSpec> specs = build_specs(round_legs(options.workload, options.seed, 0));
  for (const CampaignSpec& spec : specs) {
    for (const auto& unit : spec.units) {
      const auto& protocol = std::get<netcons::ProtocolSpec>(unit.spec);
      for (const auto& scheduler : spec.schedulers) {
        for (const auto& engine : spec.engines) {
          for (const int n : spec.ns) {
            const auto built = netcons::campaign::instantiate_engine(
                engine.make, protocol.protocol, n, spec.base_seed, scheduler.make);
            if (built == nullptr) throw std::runtime_error("perfbench: no engine");
          }
        }
      }
    }
  }
  fs::create_directories(options.work);
  return now_s() - start;
}

struct RoundTotals {
  std::uint64_t trials = 0;
  std::uint64_t failed = 0;  ///< Failed trials plus failed byte checks.
  std::uint64_t checks = 0;
  double campaign_s = 0;
  double wall_s = 0;
};

RoundTotals run_round(const Options& options, int round, bool traced, TrialLog* log) {
  const std::vector<CampaignSpec> specs =
      build_specs(round_legs(options.workload, options.seed, round));
  const fs::path dir = options.work / ("round-" + std::to_string(round) + (traced ? "-t" : ""));
  fs::remove_all(dir);
  fs::create_directories(dir);
  RoundTotals totals;
  const double start = now_s();
  for (std::size_t k = 0; k < specs.size(); ++k) {
    const LegRun leg = run_leg(instrument(specs[k], traced),
                               dir / ("leg-" + std::to_string(k) + ".jsonl"), options.threads, log);
    totals.trials += leg.trials;
    totals.failed += leg.failed_trials + (leg.rebuilt_matches ? 0 : 1);
    totals.checks += 1;
    totals.campaign_s += leg.campaign_s;
  }
  totals.wall_s = now_s() - start;
  fs::remove_all(dir);
  return totals;
}

Result run_campaign_workload(const Options& options) {
  Result out;
  TrialLog log;
  std::vector<double> setups;
  for (int i = 0; i < (options.traced ? 1 : kSetupRepeats); ++i) setups.push_back(set_up(options));

  std::vector<double> rates, walls, overheads;
  netcons::telemetry::Registry reference;  // Counters of round 0 (exact for a seed).
  std::int64_t reference_from = 0, reference_to = 0;  // Round 0's traced pass.
  const double deadline = now_s() + options.seconds;
  int round = 0;
  for (; round == 0 || now_s() < deadline; ++round) {
    if (!options.traced) {
      const RoundTotals totals = run_round(options, round, false, &log);
      out.attempted += totals.trials + totals.checks;
      out.failed += totals.failed;
      rates.push_back(static_cast<double>(totals.trials) / totals.campaign_s);
      walls.push_back(totals.wall_s * 1e3);
      continue;
    }
    // Traced: the same round untraced and traced, in alternating order;
    // their wall-time ratio is the tracing overhead.
    double plain_s = 0, traced_s = 0;
    for (int pass = 0; pass < 2; ++pass) {
      const bool trace_this = (pass == 0) == (round % 2 == 1);
      if (trace_this) {
        trace::set_enabled(true);
        if (round == 0) set_publish_registry(&reference);
      }
      const std::int64_t from = trace::now_ns();
      const RoundTotals totals = run_round(options, round, trace_this, &log);
      if (trace_this && round == 0) {
        reference_from = from;
        reference_to = trace::now_ns();
      }
      trace::set_enabled(false);
      set_publish_registry(nullptr);
      out.attempted += totals.trials + totals.checks;
      out.failed += totals.failed;
      (trace_this ? traced_s : plain_s) = totals.wall_s;
    }
    overheads.push_back(traced_s / plain_s - 1.0);
  }

  if (!options.traced) {
    const std::vector<double> trials = log.all();
    const double rate = quantile(rates, 0.5);
    const double p50 = quantile(trials, 0.5);
    const double p90 = quantile(trials, 0.9);
    const double p99 = quantile(trials, 0.99);
    say(options.workload + ": " + std::to_string(round) + " rounds, " +
        std::to_string(trials.size()) + " trials, " + std::to_string(out.failed) + " failed");
    say("  setup_s        " + fixed(quantile(setups, 0.5), 4) + "  (median of " +
        std::to_string(setups.size()) + " set-ups)");
    say("  trials_per_s   " + fixed(rate, 2) + "  (median of " + std::to_string(rates.size()) +
        " rounds)");
    say("  trial_ms       p50 " + fixed(p50) + "  p90 " + fixed(p90) + "  (" +
        std::to_string(trials.size()) + " trials" +
        (tail_reportable(trials.size(), 90) ? "" : "; p90 has < 10 samples beyond it") + ")");
    say("  req_*          = per trial on this workload (p99 " + fixed(p99) + ", not a metric)" +
        (tail_reportable(trials.size(), 99) ? "" : "  (p99 has < 10 samples beyond it)"));
    say("  miss_ms_p50    " + fixed(quantile(walls, 0.5)) +
        "  (round: campaigns -> records -> merged summary -> report, " +
        std::to_string(walls.size()) + " rounds)");
    say("  failed_frac    " + fixed(static_cast<double>(out.failed) /
                                        static_cast<double>(std::max<std::uint64_t>(out.attempted, 1)),
                                    6));
    out.add("setup_s", quantile(setups, 0.5), "s");
    out.add("trials_per_s", rate, "1/s");
    out.add("trial_ms_p50", p50, "ms");
    out.add("trial_ms_p90", p90, "ms");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("req_per_s", rate, "1/s");
    out.add("req_ms_p50", p50, "ms");
    out.add("req_ms_p90", p90, "ms");
    out.add("miss_ms_p50", quantile(walls, 0.5), "ms");
    return out;
  }

  const std::vector<trace::Span> spans = trace::drain();
  write_trace(options, spans);
  LayerReport report;
  report.window = derive_layers(spans, INT64_MIN, INT64_MAX);
  report.reference = derive_layers(spans, reference_from, reference_to);
  report.artifacts = report.window;
  report.counters = &reference;
  report.pool_wall_s = total_ms(report.window, "campaign") / 1e3;
  report.threads = options.threads;
  report.overhead = quantile(overheads, 0.5);
  report.overhead_samples = overheads.size();
  emit_layers(out, options.workload, report);
  return out;
}

}  // namespace

Result run_large_n(const Options& options) { return run_campaign_workload(options); }
Result run_paper_sweep(const Options& options) { return run_campaign_workload(options); }

}  // namespace perfbench
