// netcons_report: per-trial distribution analytics over trial-record
// streams — the paper's figure-style views (stabilization-time histograms,
// ECDFs, tail quantiles) computed exactly from any set of record files.
//
//   netcons_report records/ --json report.json --csv report.csv
//   netcons_report shard0/ shard1/ shard2/ --bins 32 --json report.json
//   netcons_report records/ --metrics convergence_steps,recovery_steps
//   netcons_report --compare fault-free/ faulted/ --json compare.json
//   netcons_report --compare naive/ census/ --max-ks 0.2   # equivalence gate
//   netcons_report --trend records/ --csv trend.csv        # percentiles over n
//
// Inputs are trial-record .jsonl files and/or directories of them (see
// netcons_merge); all must carry the same campaign fingerprint. Records
// stream through a bounded-memory pipeline (value -> multiplicity maps per
// grid point), so million-trial record sets never materialize. Duplicates
// resolve last-wins in scan order, and the emitted statistics are computed
// in canonical (point, trial) order — the output bytes depend only on the
// record *set*, never on file arrangement or arrival order. CI enforces
// this with cmp: report-on-shards == report-on-compacted, run twice.
//
// --compare A B matches grid points across two record sets by
// (unit, scheduler, n) and, where B holds the same fault plan, by plan too
// (analysis::compare_pairs) — e.g. a faulted campaign against its
// fault-free twin, or naive against census plan by plan — and reports the
// exact two-sample Kolmogorov–Smirnov distance per metric.
//
// Exit status: 0 on success, 2 on usage errors, 1 on incomplete streams
// (unless --allow-partial), header mismatches, or corrupt records.
#include "analysis/distribution.hpp"
#include "analysis/report.hpp"
#include "campaign/campaign.hpp"
#include "campaign/json.hpp"
#include "util/table.hpp"

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace netcons;

struct Options {
  std::vector<std::string> inputs;
  std::optional<std::string> json_path;
  std::optional<std::string> csv_path;
  std::optional<std::string> ecdf_csv_path;
  std::vector<analysis::Metric> metrics;  // Empty: all, in canonical order.
  int bins = 0;                           // <= 0: Freedman–Diaconis.
  double max_ks = -1.0;                   // < 0: report only, never gate.
  bool compare = false;
  bool trend = false;
  bool allow_partial = false;
  bool quiet = false;
};

void print_help(const char* argv0) {
  std::cout << "usage: " << argv0 << " RECORDS... [flags]\n"
            << "       " << argv0 << " --compare A B [--max-ks D] [flags]\n"
            << "       " << argv0 << " --trend RECORDS... [flags]\n"
            << "\nCompute per-trial distribution statistics (histograms, ECDFs, tail\n"
               "quantiles) exactly from trial-record streams, compare two record\n"
               "sets with the two-sample Kolmogorov-Smirnov distance, or trace\n"
               "percentiles over the population-size axis (--trend).\n"
               "RECORDS are .jsonl files and/or directories of them; every input must\n"
               "carry the same campaign fingerprint.\n"
            << "\nflags:\n"
               "  --json FILE             write the report (netcons-report-v1) or, with\n"
               "                          --compare, KS distances (netcons-compare-v1)\n"
               "  --csv FILE              write per-point histograms as CSV\n"
               "  --ecdf-csv FILE         write per-point ECDFs as CSV\n"
               "  --bins N|fd             histogram binning: a fixed count or\n"
               "                          Freedman-Diaconis (default fd)\n"
               "  --metrics m1,m2,...     restrict to these metrics (default all):\n"
               "                          convergence_steps, steps_executed,\n"
               "                          recovery_steps, edges_residual\n"
               "  --compare               compare exactly two record sets point-by-point\n"
               "  --max-ks D              with --compare: exit 1 if any KS distance\n"
               "                          exceeds D (an equivalence gate)\n"
               "  --trend                 percentile-over-n trend view: one row per n for\n"
               "                          each (unit, scheduler, faults, engine, metric)\n"
               "                          series; --json/--csv emit netcons-trend-v1 and\n"
               "                          trend rows instead of the report forms\n"
               "  --allow-partial         report incomplete record streams instead of\n"
               "                          failing on missing trials\n"
               "  --quiet                 suppress tables and progress lines\n"
               "  --help                  this message\n";
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " RECORDS... [--json FILE] [--csv FILE] [--ecdf-csv FILE]\n"
               "       [--bins N|fd] [--metrics m1,m2,...] [--allow-partial] [--quiet]\n"
               "       "
            << argv0
            << " --compare A B [--max-ks D] [--json FILE] [--quiet]\n"
               "       "
            << argv0
            << " --trend RECORDS... [--json FILE] [--csv FILE] [--quiet]\n"
               "       RECORDS: trial-record .jsonl files and/or directories of them\n"
               "       metrics: convergence_steps, steps_executed, recovery_steps, "
               "edges_residual\n"
               "(--help for flag descriptions)\n";
  return 2;
}

std::optional<Options> parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return (i + 1 < argc) ? argv[++i] : nullptr; };
    if (arg == "--help") {
      print_help(argv[0]);
      std::exit(0);
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--allow-partial") {
      opt.allow_partial = true;
    } else if (arg == "--compare") {
      opt.compare = true;
    } else if (arg == "--trend") {
      opt.trend = true;
    } else if (arg == "--max-ks") {
      const char* v = next();
      if (!v) return std::nullopt;
      char* end = nullptr;
      errno = 0;
      const double max_ks = std::strtod(v, &end);
      if (end == v || *end != '\0' || errno == ERANGE || !(max_ks >= 0.0) || max_ks > 1.0) {
        std::cerr << "--max-ks expects a threshold in [0, 1], got '" << v << "'\n";
        return std::nullopt;
      }
      opt.max_ks = max_ks;
    } else if (arg == "--json" || arg == "--csv" || arg == "--ecdf-csv") {
      const char* v = next();
      if (!v) return std::nullopt;
      if (arg == "--json") opt.json_path = v;
      if (arg == "--csv") opt.csv_path = v;
      if (arg == "--ecdf-csv") opt.ecdf_csv_path = v;
    } else if (arg == "--bins") {
      const char* v = next();
      if (!v) return std::nullopt;
      const std::string value = v;
      if (value == "fd") {
        opt.bins = 0;
      } else {
        // Strict parse: the whole token must be a number ("32abc" and
        // "1e3" are typos, not bin counts).
        char* end = nullptr;
        errno = 0;
        const long bins = std::strtol(value.c_str(), &end, 10);
        if (end == value.c_str() || *end != '\0' || errno == ERANGE || bins < 1 ||
            bins > analysis::kMaxHistogramBins) {
          std::cerr << "--bins expects fd or an integer in [1, "
                    << analysis::kMaxHistogramBins << "], got '" << value << "'\n";
          return std::nullopt;
        }
        opt.bins = static_cast<int>(bins);
      }
    } else if (arg == "--metrics") {
      const char* v = next();
      if (!v) return std::nullopt;
      std::stringstream stream{std::string(v)};
      std::string item;
      while (std::getline(stream, item, ',')) {
        if (item.empty()) continue;
        const auto metric = analysis::metric_from_name(item);
        if (!metric) {
          std::cerr << "unknown metric '" << item << "'; metrics:";
          for (const auto m : analysis::all_metrics()) {
            std::cerr << ' ' << analysis::metric_name(m);
          }
          std::cerr << "\n";
          return std::nullopt;
        }
        opt.metrics.push_back(*metric);
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown argument: " << arg << "\n";
      return std::nullopt;
    } else {
      opt.inputs.push_back(arg);
    }
  }
  if (opt.inputs.empty()) return std::nullopt;
  if (opt.compare && opt.trend) {
    std::cerr << "--compare and --trend are distinct modes; pick one\n";
    return std::nullopt;
  }
  if (opt.compare) {
    if (opt.inputs.size() != 2) {
      std::cerr << "--compare expects exactly two record sets\n";
      return std::nullopt;
    }
  } else if (opt.max_ks >= 0.0) {
    std::cerr << "--max-ks only applies to --compare\n";
    return std::nullopt;
  }
  if (opt.compare) {
    // Refuse flags compare mode would silently ignore: a requested output
    // file that never appears is a broken pipeline, not a no-op.
    if (opt.csv_path || opt.ecdf_csv_path || opt.bins != 0) {
      std::cerr << "--compare emits KS distances only (--json/--metrics); "
                   "--csv, --ecdf-csv and --bins do not apply\n";
      return std::nullopt;
    }
  }
  if (opt.trend && (opt.ecdf_csv_path || opt.bins != 0)) {
    // Same refusal discipline: trend rows carry no histograms or ECDFs.
    std::cerr << "--trend emits percentile rows only (--json/--csv/--metrics); "
                 "--ecdf-csv and --bins do not apply\n";
    return std::nullopt;
  }
  if (opt.metrics.empty()) {
    opt.metrics.assign(analysis::all_metrics().begin(), analysis::all_metrics().end());
  }
  return opt;
}

/// The rendering spec the parsed flags describe (analysis/report.hpp holds
/// the shared implementation the serve cache also renders through).
analysis::ReportSpec report_spec(const Options& opt) {
  analysis::ReportSpec spec;
  spec.metrics = opt.metrics;
  spec.bins = opt.bins;
  return spec;
}

bool write_file(const std::string& path, const std::string& content, bool quiet) {
  std::ofstream file(path);
  file << content;
  if (!file) {
    std::cerr << "failed to write " << path << "\n";
    return false;
  }
  if (!quiet) std::cout << "wrote " << path << '\n';
  return true;
}

int run_report(const Options& opt) {
  analysis::RecordDistributionBuilder builder = analysis::load_distributions(opt.inputs);
  if (builder.missing() > 0 && !opt.allow_partial) {
    const auto missing = builder.first_missing();
    std::cerr << "incomplete record stream: " << builder.missing() << " of "
              << builder.filled() + builder.missing() << " trials missing; first missing: (point "
              << missing->first << " [" << builder.header().points[missing->first].unit
              << " n=" << builder.header().points[missing->first].n << "], trial "
              << missing->second
              << ")\n(run the missing shards or netcons_campaign --resume, or pass "
                 "--allow-partial to report the recorded trials only)\n";
    return 1;
  }

  const std::vector<analysis::PointDistributions> dists = builder.build();
  const campaign::CampaignHeader& header = builder.header();

  if (!opt.quiet) {
    std::cout << "report over " << builder.filled() << " trials ("
              << builder.duplicates() << " superseded duplicates, " << builder.missing()
              << " missing)\n";
    TextTable table({"unit", "scheduler", "faults", "engine", "n", "metric", "count", "mean",
                     "p50", "p90", "p99", "max"});
    for (std::size_t p = 0; p < header.points.size(); ++p) {
      for (const analysis::Metric metric : opt.metrics) {
        if (!analysis::metric_applicable(metric, header.points[p].faulted)) continue;
        const analysis::ValueDistribution& dist = dists[p].metric(metric);
        table.add_row({header.points[p].unit, header.points[p].scheduler,
                       header.points[p].faults, header.points[p].engine,
                       TextTable::integer(static_cast<std::uint64_t>(header.points[p].n)),
                       std::string(analysis::metric_name(metric)),
                       TextTable::integer(dist.count()), TextTable::num(dist.mean()),
                       TextTable::num(dist.quantile(0.50)), TextTable::num(dist.quantile(0.90)),
                       TextTable::num(dist.quantile(0.99)),
                       TextTable::integer(dist.max())});
      }
    }
    std::cout << table;
  }

  bool ok = true;
  const analysis::ReportSpec spec = report_spec(opt);
  if (opt.json_path) {
    ok = write_file(*opt.json_path, analysis::report_json(builder, dists, spec), opt.quiet) && ok;
  }
  if (opt.csv_path) {
    ok = write_file(*opt.csv_path, analysis::histogram_csv(header, dists, spec), opt.quiet) && ok;
  }
  if (opt.ecdf_csv_path) {
    ok = write_file(*opt.ecdf_csv_path, analysis::ecdf_csv(header, dists, spec), opt.quiet) && ok;
  }
  return ok ? 0 : 1;
}

int run_trend(const Options& opt) {
  analysis::RecordDistributionBuilder builder = analysis::load_distributions(opt.inputs);
  if (builder.missing() > 0 && !opt.allow_partial) {
    std::cerr << "incomplete record stream (" << builder.missing() << " of "
              << builder.filled() + builder.missing()
              << " trials missing); complete it or pass --allow-partial\n";
    return 1;
  }
  const std::vector<analysis::PointDistributions> dists = builder.build();
  const campaign::CampaignHeader& header = builder.header();
  const analysis::ReportSpec spec = report_spec(opt);

  if (!opt.quiet) {
    std::cout << "trend over " << builder.filled() << " trials ("
              << builder.duplicates() << " superseded duplicates, " << builder.missing()
              << " missing)\n";
    TextTable table({"unit", "scheduler", "faults", "engine", "metric", "n", "count", "mean",
                     "p50", "p90", "p99", "max"});
    for (const analysis::TrendRow& row : analysis::trend_rows(header, spec)) {
      const campaign::GridPoint& point = header.points[row.point];
      const analysis::ValueDistribution& dist = dists[row.point].metric(row.metric);
      table.add_row({point.unit, point.scheduler, point.faults, point.engine,
                     std::string(analysis::metric_name(row.metric)),
                     TextTable::integer(static_cast<std::uint64_t>(point.n)),
                     TextTable::integer(dist.count()), TextTable::num(dist.mean()),
                     TextTable::num(dist.quantile(0.50)), TextTable::num(dist.quantile(0.90)),
                     TextTable::num(dist.quantile(0.99)), TextTable::integer(dist.max())});
    }
    std::cout << table;
  }

  bool ok = true;
  if (opt.json_path) {
    ok = write_file(*opt.json_path, analysis::trend_json(header, dists, spec), opt.quiet) && ok;
  }
  if (opt.csv_path) {
    ok = write_file(*opt.csv_path, analysis::trend_csv(header, dists, spec), opt.quiet) && ok;
  }
  return ok ? 0 : 1;
}

int run_compare(const Options& opt) {
  const analysis::RecordDistributionBuilder a = analysis::load_distributions({opt.inputs[0]});
  const analysis::RecordDistributionBuilder b = analysis::load_distributions({opt.inputs[1]});
  // An incomplete stream would make the comparison (and especially a
  // --max-ks gate) vacuously optimistic: missing trials contribute no
  // samples, and an all-header record set would "pass" with ks = 0.
  for (const auto* side : {&a, &b}) {
    if (side->missing() > 0 && !opt.allow_partial) {
      std::cerr << "incomplete record stream (" << side->missing() << " of "
                << side->filled() + side->missing()
                << " trials missing); complete it or pass --allow-partial\n";
      return 1;
    }
  }
  const std::vector<analysis::PointDistributions> dists_a = a.build();
  const std::vector<analysis::PointDistributions> dists_b = b.build();

  const std::vector<analysis::ComparePair> pairs =
      analysis::compare_pairs(a.header().points, b.header().points);
  if (pairs.empty()) {
    std::cerr << "no grid points match between the two record sets "
                 "(matching is by unit, scheduler, n, then fault plan)\n";
    return 1;
  }

  std::string json = "{\n  \"schema\": \"netcons-compare-v1\",\n  \"pairs\": [\n";
  TextTable table({"unit", "scheduler", "n", "faults a", "faults b", "engine a", "engine b",
                   "metric", "count a", "count b", "ks"});
  bool first = true;
  double worst_ks = 0.0;
  std::string worst_label;
  std::size_t compared = 0;
  for (const analysis::ComparePair& pair : pairs) {
    const campaign::GridPoint& pa = a.header().points[pair.a];
    const campaign::GridPoint& pb = b.header().points[pair.b];
    for (const analysis::Metric metric : opt.metrics) {
      const analysis::ValueDistribution& da = dists_a[pair.a].metric(metric);
      const analysis::ValueDistribution& db = dists_b[pair.b].metric(metric);
      if (da.count() == 0 || db.count() == 0) continue;
      ++compared;
      const double ks = analysis::ks_distance(da, db);
      if (!first) json += ",\n";
      first = false;
      json += "    {\"unit\": ";
      campaign::json::append_escaped(json, pa.unit);
      json += ", \"scheduler\": ";
      campaign::json::append_escaped(json, pa.scheduler);
      json += ", \"n\": " + std::to_string(pa.n);
      json += ", \"faults_a\": ";
      campaign::json::append_escaped(json, pa.faults);
      json += ", \"faults_b\": ";
      campaign::json::append_escaped(json, pb.faults);
      json += ", \"engine_a\": ";
      campaign::json::append_escaped(json, pa.engine);
      json += ", \"engine_b\": ";
      campaign::json::append_escaped(json, pb.engine);
      json += ", \"metric\": ";
      campaign::json::append_escaped(json, std::string(analysis::metric_name(metric)));
      json += ", \"count_a\": " + std::to_string(da.count());
      json += ", \"count_b\": " + std::to_string(db.count());
      json += ", \"ks\": ";
      campaign::json::append_double(json, ks);
      json += "}";
      table.add_row({pa.unit, pa.scheduler, TextTable::integer(static_cast<std::uint64_t>(pa.n)),
                     pa.faults, pb.faults, pa.engine, pb.engine,
                     std::string(analysis::metric_name(metric)),
                     TextTable::integer(da.count()), TextTable::integer(db.count()),
                     TextTable::num(ks)});
      if (ks > worst_ks) {
        worst_ks = ks;
        worst_label = pa.unit + " n=" + std::to_string(pa.n) + " " +
                      std::string(analysis::metric_name(metric)) + " (" + pa.engine + "/" +
                      pa.faults + " vs " + pb.engine + "/" + pb.faults + ")";
      }
    }
  }
  json += "\n  ]\n}\n";

  if (!opt.quiet) std::cout << table;
  if (opt.json_path && !write_file(*opt.json_path, json, opt.quiet)) return 1;
  if (compared == 0) {
    // Matched grid points but no metric had samples on both sides -- a
    // comparison that compared nothing must not read as agreement.
    std::cerr << "no metric had samples on both sides for any matched grid point\n";
    return 1;
  }
  if (opt.max_ks >= 0.0 && worst_ks > opt.max_ks) {
    std::cerr << "KS gate failed: worst distance " << worst_ks << " > --max-ks " << opt.max_ks
              << " at " << worst_label << "\n";
    return 1;
  }
  if (opt.max_ks >= 0.0 && !opt.quiet) {
    std::cout << "KS gate passed: worst distance " << worst_ks << " <= " << opt.max_ks << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = parse(argc, argv);
  if (!parsed) return usage(argv[0]);
  try {
    if (parsed->compare) return run_compare(*parsed);
    if (parsed->trend) return run_trend(*parsed);
    return run_report(*parsed);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
}
