// bench_report_throughput: the distribution-analytics pipeline, measured.
//
// Generates a synthetic trial-record stream (deterministic SplitMix64
// samples over a realistic grid), writes it to disk, then times the two
// stages netcons_report is built from:
//
//  1. Stream — TrialRecordReader + RecordDistributionBuilder over the
//     record file (parse, dedup, slot fill).
//  2. Report — folding the slots into per-point distributions and
//     evaluating every metric's ECDF, histogram, and tail quantiles.
//
// Correctness is enforced, not assumed: the streamed statistics of one
// point are checked against a brute-force recomputation from the raw
// samples; any mismatch fails the run (and the ctest entry).
//
// Usage: bench_report_throughput [--records N] [--json FILE]
//
// --json FILE writes the machine-readable throughput metrics consumed by
// the nightly bench workflow's regression gate (tools/compare_bench.py):
// every value under "throughput" is higher-is-better.
#include "bench_help.hpp"
#include "analysis/distribution.hpp"
#include "campaign/campaign.hpp"
#include "campaign/seeds.hpp"
#include "campaign/trial_record.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace netcons;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Deletes the scratch directory on every exit path (early failure
/// returns, exceptions from the reader/builder), not just the happy one.
struct ScratchDir {
  std::filesystem::path path;
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// Brute-force interpolated percentile (the RunningStats convention) over a
/// raw sample vector — the reference the streamed pipeline must match.
double reference_quantile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  const double position = p * static_cast<double>(samples.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  const double fraction = position - static_cast<double>(lower);
  if (lower + 1 >= samples.size()) return samples.back();
  return samples[lower] * (1.0 - fraction) + samples[lower + 1] * fraction;
}

}  // namespace

constexpr const char* kUsage =
    "usage: bench_report_throughput [--records N] [--json FILE]\n"
    "\n"
    "Record streaming and distribution-report throughput.\n"
    "  --records N   synthetic records (default 200000)\n"
    "  --json FILE   write the metrics\n";

int main(int argc, char** argv) {
  if (netcons::bench::help_requested(argc, argv, kUsage)) return 0;
  std::uint64_t records = 200000;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--records") == 0 && i + 1 < argc) {
      records = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  if (records == 0) records = 1;

  // A synthetic 4-point grid; trials fill the requested record count.
  campaign::CampaignHeader header;
  header.base_seed = 0xBEEF;
  header.trials = static_cast<int>((records + 3) / 4);
  for (int p = 0; p < 4; ++p) {
    campaign::GridPoint point;
    point.unit = "synthetic";
    point.scheduler = "uniform";
    point.n = 16 << p;
    point.seed = campaign::point_seed(header.base_seed, static_cast<std::uint64_t>(p));
    header.points.push_back(point);
  }
  const std::uint64_t total =
      static_cast<std::uint64_t>(header.trials) * header.points.size();

  // Per-process scratch dir: concurrent invocations (nightly job + a local
  // run on the same machine) must not truncate or delete each other's data.
  const ScratchDir scratch{std::filesystem::temp_directory_path() /
                           ("netcons_bench_report_" +
                            std::to_string(static_cast<long>(::getpid())))};
  const std::filesystem::path& dir = scratch.path;
  std::filesystem::create_directories(dir);
  const std::filesystem::path file = dir / "synthetic.jsonl";

  // Deterministic synthetic samples: geometric-ish step counts so the
  // histogram/ECDF paths see a realistic spread of distinct values.
  {
    std::ofstream out(file, std::ios::out | std::ios::trunc);
    out << campaign::header_line(header) << '\n';
    for (std::size_t p = 0; p < header.points.size(); ++p) {
      for (int t = 0; t < header.trials; ++t) {
        const std::uint64_t draw =
            campaign::stream_seed(header.points[p].seed, static_cast<std::uint64_t>(t));
        campaign::TrialRecord record;
        record.point = p;
        record.trial = t;
        record.seed = draw;
        record.outcome.success = (draw % 100) != 0;  // 1% failures.
        record.outcome.value = 100 + draw % (1000 * (p + 1));
        record.outcome.steps_executed = record.outcome.value + draw % 64;
        out << campaign::record_line(record) << '\n';
      }
    }
    out.flush();
    if (!out) {
      std::cerr << "failed to write " << file << '\n';
      return 1;
    }
  }
  std::cout << "synthetic stream: " << total << " records over " << header.points.size()
            << " points at " << file << "\n\n";

  // --- stage 1: stream the records through the builder --------------------
  const auto stream_start = std::chrono::steady_clock::now();
  campaign::TrialRecordReader reader({file.string()});
  analysis::RecordDistributionBuilder builder(header);
  while (const auto record = reader.next()) builder.add(*record);
  const double stream_seconds = seconds_since(stream_start);

  // --- stage 2: fold into distributions and evaluate every view -----------
  const auto report_start = std::chrono::steady_clock::now();
  const std::vector<analysis::PointDistributions> dists = builder.build();
  double checksum = 0.0;
  std::size_t ecdf_points = 0;
  for (const auto& point : dists) {
    for (const analysis::Metric metric : analysis::all_metrics()) {
      const analysis::ValueDistribution& dist = point.metric(metric);
      if (dist.count() == 0) continue;
      checksum += dist.mean() + dist.quantile(0.5) + dist.quantile(0.9) + dist.quantile(0.99);
      ecdf_points += analysis::ecdf(dist).size();
      checksum += static_cast<double>(analysis::histogram(dist).counts.size());
    }
  }
  const double report_seconds = seconds_since(report_start);

  // --- enforced contract: streamed stats == brute force on point 0 --------
  std::vector<double> reference;
  for (int t = 0; t < header.trials; ++t) {
    const std::uint64_t draw =
        campaign::stream_seed(header.points[0].seed, static_cast<std::uint64_t>(t));
    if ((draw % 100) != 0) reference.push_back(static_cast<double>(100 + draw % 1000));
  }
  const analysis::ValueDistribution& convergence =
      dists[0].metric(analysis::Metric::kConvergenceSteps);
  bool ok = builder.missing() == 0 && convergence.count() == reference.size();
  if (ok) {
    double sum = 0.0;
    for (const double sample : reference) sum += sample;
    const double mean = sum / static_cast<double>(reference.size());
    ok = std::abs(convergence.mean() - mean) < 1e-9 * std::max(1.0, std::abs(mean)) &&
         std::abs(convergence.quantile(0.9) - reference_quantile(reference, 0.9)) < 1e-9;
  }
  std::cout << "streamed stats match brute force: " << (ok ? "yes" : "NO") << '\n';

  const double stream_rate = stream_seconds > 0 ? static_cast<double>(total) / stream_seconds : 0;
  const double report_rate = report_seconds > 0 ? static_cast<double>(total) / report_seconds : 0;
  std::cout << "stream: " << stream_seconds << " s (" << stream_rate << " records/s)\n"
            << "report: " << report_seconds << " s (" << report_rate
            << " records/s, " << ecdf_points << " ecdf points, checksum " << checksum << ")\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"report_throughput\",\n"
        << "  \"records\": " << total << ",\n"
        << "  \"throughput\": {\n"
        << "    \"stream_records_per_second\": " << stream_rate << ",\n"
        << "    \"report_records_per_second\": " << report_rate << "\n  }\n}\n";
    out.flush();
    if (!out) {
      std::cerr << "failed to write " << json_path << '\n';
      return 1;
    }
    std::cout << "wrote " << json_path << '\n';
  }

  return ok ? 0 : 1;
}
