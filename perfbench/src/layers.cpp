#include "workload.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <unordered_map>

#include <sys/resource.h>

namespace perfbench {

Layers derive_layers(const std::vector<trace::Span>& spans, std::int64_t from_ns,
                     std::int64_t to_ns) {
  const auto self = trace::self_times(spans);
  std::unordered_map<std::uint64_t, const trace::Span*> by_id;
  for (const trace::Span& span : spans) by_id[span.id] = &span;

  Layers out;
  double setup_ns = 0, simulate_ns = 0, model_ns = 0, certificate_ns = 0;
  double output_graph_ns = 0, target_ns = 0, record_ns = 0, record_bytes = 0;
  std::uint64_t setups = 0, simulates = 0, output_graphs = 0, targets = 0, records = 0;
  double path_ns[4] = {0, 0, 0, 0};
  std::uint64_t path_units[4] = {0, 0, 0, 0};

  for (const trace::Span& span : spans) {
    if (span.begin_ns < from_ns || span.begin_ns >= to_ns) continue;
    const std::string_view name = span.name;
    const auto duration = static_cast<double>(span.end_ns - span.begin_ns);
    const auto own = static_cast<double>(self.at(span.id));
    if (name == "engine_setup") {
      setup_ns += own;
      ++setups;
    } else if (name == "simulate") {
      simulate_ns += own;
      ++simulates;
      out.steps += span.steps;
      out.effective_steps += span.effective;
      const auto path = static_cast<std::size_t>(span.path);
      path_ns[path] += own;
      path_units[path] += span.path == trace::Path::kNaive ? span.steps : span.effective;
    } else if (name == "model_build") {
      model_ns += duration;
      ++out.model_builds;
    } else if (name == "certificate") {
      certificate_ns += duration;
      ++out.certificate_calls;
    } else if (name == "output_graph") {
      output_graph_ns += duration;
      ++output_graphs;
    } else if (name == "target") {
      target_ns += duration;
      ++targets;
      out.graph_bytes = std::max(out.graph_bytes, span.bytes);
      const auto parent = by_id.find(span.parent);
      if (parent != by_id.end()) out.target_by_unit[parent->second->label].first += duration / 1e9;
    } else if (name == "trial") {
      ++out.trials;
      out.trial_busy_s += duration / 1e9;
      out.target_by_unit[span.label].second += duration / 1e9;
    } else if (name == "record_write") {
      record_ns += duration;
      record_bytes += static_cast<double>(span.bytes);
      ++records;
    } else {
      out.other_ms[span.name].push_back(duration / 1e6);
    }
  }

  const auto per = [](double total, std::uint64_t count) {
    return count > 0 ? total / static_cast<double>(count) : 0.0;
  };
  out.engine_setup_ms = per(setup_ns, setups) / 1e6;
  out.simulate_ms = per(simulate_ns, simulates) / 1e6;
  out.ns_per_eff_uniform = ns_per(path_ns[static_cast<int>(trace::Path::kCensusUniform)],
                                  path_units[static_cast<int>(trace::Path::kCensusUniform)]);
  out.ns_per_eff_weighted = ns_per(path_ns[static_cast<int>(trace::Path::kCensusWeighted)],
                                   path_units[static_cast<int>(trace::Path::kCensusWeighted)]);
  out.ns_per_step_naive = ns_per(path_ns[static_cast<int>(trace::Path::kNaive)],
                                 path_units[static_cast<int>(trace::Path::kNaive)]);
  out.model_build_ms = per(model_ns, out.model_builds) / 1e6;
  out.certificate_ms = certificate_ns / 1e6;
  out.output_graph_ms = per(output_graph_ns, output_graphs) / 1e6;
  out.target_ms = per(target_ns, targets) / 1e6;
  out.target_frac = out.trial_busy_s > 0 ? target_ns / 1e9 / out.trial_busy_s : 0.0;
  out.record_write_us = per(record_ns, records) / 1e3;
  out.record_bytes = per(record_bytes, records);
  out.record_writes = records;
  return out;
}

double mean_ms(const Layers& layers, const std::string& name) {
  const auto found = layers.other_ms.find(name);
  return found == layers.other_ms.end() ? 0.0 : mean(found->second);
}

double total_ms(const Layers& layers, const std::string& name) {
  const auto found = layers.other_ms.find(name);
  return found == layers.other_ms.end() ? 0.0
                                        : mean(found->second) *
                                              static_cast<double>(found->second.size());
}

std::string fixed(double value, int digits) {
  char text[64];
  std::snprintf(text, sizeof text, "%.*f", digits, value);
  return text;
}

void emit_layers(Result& out, const std::string& workload, const LayerReport& report) {
  const Layers& w = report.window;
  const Layers& a = report.artifacts;
  const auto count = [&](std::string_view name) {
    return report.counters ? counter_value(*report.counters, name) : 0;
  };
  const std::uint64_t accepted = count("census.weighted_samples");
  const std::uint64_t rejected = count("census.weighted_rejects");
  const double report_s = total_ms(a, "report") / 1e3;

  out.add("core.engine_setup_ms", w.engine_setup_ms, "ms");
  out.add("core.simulate_ms", w.simulate_ms, "ms");
  out.add("core.ns_per_eff.census_uniform", w.ns_per_eff_uniform, "ns");
  out.add("core.steps", static_cast<double>(report.reference.steps), "count");
  out.add("core.effective_steps", static_cast<double>(report.reference.effective_steps), "count");
  out.add("census.full_rebuilds", static_cast<double>(count("census.full_rebuilds")), "count");
  out.add("census.delta_updates", static_cast<double>(count("census.delta_updates")), "count");
  out.add("census.alias_rebuilds", static_cast<double>(count("census.alias_rebuilds")), "count");
  out.add("census.weighted_accept_ratio",
          accepted + rejected > 0
              ? static_cast<double>(accepted) / static_cast<double>(accepted + rejected)
              : 0.0,
          "ratio");
  out.add("graph.output_graph_ms", w.output_graph_ms, "ms");
  out.add("graph.target_ms", w.target_ms, "ms");
  out.add("graph.target_frac", w.target_frac, "ratio");
  out.add("graph.bytes", static_cast<double>(w.graph_bytes), "bytes");
  out.add("campaign.idle_frac", idle_fraction(w.trial_busy_s, report.pool_wall_s, report.threads),
          "ratio");
  out.add("campaign.record_write_us", w.record_write_us, "us");
  out.add("campaign.record_bytes", w.record_bytes, "bytes");
  out.add("campaign.reduce_ms", mean_ms(a, "reduce"), "ms");
  out.add("campaign.summary_ms", mean_ms(a, "summary"), "ms");
  out.add("campaign.merge_ms", mean_ms(a, "merge"), "ms");
  out.add("analysis.report_ms", mean_ms(a, "report"), "ms");
  out.add("analysis.records_per_s",
          report_s > 0 ? static_cast<double>(a.record_writes) / report_s : 0.0, "1/s");
  out.add("serve.hit_ratio", report.hit_ratio, "ratio");
  out.add("serve.http_errors", static_cast<double>(report.http_errors), "count");
  out.add("trace_overhead_frac", report.overhead, "ratio");

  say(workload + " (traced): " + std::to_string(w.trials) + " traced trials; per-layer figures");
  for (const Metric& metric : out.metrics) {
    say("  " + metric.name + std::string(metric.name.size() < 34 ? 34 - metric.name.size() : 1, ' ') +
        fixed(metric.value, 4) + " " + metric.unit);
  }
  say("  -- figures this workload may not exercise (not in the JSON; 0 = not exercised):");
  say("  core.ns_per_eff.census_weighted   " + fixed(w.ns_per_eff_weighted, 2) + " ns");
  say("  core.ns_per_step.naive            " + fixed(w.ns_per_step_naive, 2) + " ns");
  say("  sched.model_build_ms              " + fixed(w.model_build_ms, 4) + " ms  (" +
      std::to_string(w.model_builds) + " weight_model() calls)");
  say("  protocols.certificate_ms          " + fixed(w.certificate_ms, 4) + " ms  (" +
      std::to_string(w.certificate_calls) +
      " calls; no protocol in these workloads supplies a certificate)");
  for (const auto& [unit, share] : w.target_by_unit) {
    if (share.second <= 0) continue;
    say("  target share of " + unit + " trial time: " + fixed(share.first / share.second, 4));
  }
  say("  trace_overhead_frac over " + std::to_string(report.overhead_samples) + " pairs");
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB.
}

void write_trace(const Options& options, const std::vector<trace::Span>& spans) {
  if (options.trace.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(options.trace.parent_path(), ec);
  std::ofstream out(options.trace, std::ios::binary | std::ios::trunc);
  out << trace::chrome_json(spans);
  out.flush();
  if (!out) {
    std::cerr << "perfbench: could not write the trace to " << options.trace << "\n";
    return;
  }
  say("trace: " + std::to_string(spans.size()) + " spans written to " + options.trace.string());
}

void say(const std::string& line) { std::cout << line << '\n'; }

}  // namespace perfbench
