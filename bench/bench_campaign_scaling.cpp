// bench_campaign_scaling: the campaign engine's two contracts, measured.
//
//  1. Determinism — the same 500-trial sweep at 1 thread and at N threads
//     produces bit-identical aggregate statistics (mean/variance/min/max/
//     median compared with exact equality).
//  2. Scaling — on a machine with >= 4 cores the parallel run must be
//     >= 3x faster than the serial path (the acceptance bar for the
//     engine; on smaller machines the speedup is reported but not judged).
//
// Exit status: nonzero if determinism fails, or if the machine has >= 4
// cores and the speedup is < 3x. With --advisory the speedup is reported
// but never failed on (used by the ctest registration, where shared CI
// runners make wall-clock gates flaky), and a serial side under 1 s reads
// "unresolved" instead of a verdict (it would time thread start-up);
// determinism is always enforced.
//
// Usage: bench_campaign_scaling [trials_per_point] [--advisory] [--json FILE]
//
// --json FILE writes the machine-readable throughput metrics consumed by
// the nightly bench workflow's regression gate (tools/compare_bench.py):
// every value under "throughput" is higher-is-better.
#include "bench_help.hpp"
#include "campaign/campaign.hpp"
#include "campaign/registry.hpp"
#include "campaign/result_sink.hpp"
#include "util/table.hpp"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

using namespace netcons;

constexpr const char* kUsage =
    "usage: bench_campaign_scaling [TRIALS] [--advisory] [--json FILE]\n"
    "\n"
    "Campaign determinism (1 vs N threads) and parallel speedup.\n"
    "  TRIALS        trials per grid point (default 100)\n"
    "  --advisory    report the speedup but never fail on it\n"
    "  --json FILE   write the metrics\n";

/// Below this serial wall time an advisory run prints no speedup verdict.
constexpr double kMinResolvedSerialSeconds = 1.0;

int main(int argc, char** argv) {
  if (netcons::bench::help_requested(argc, argv, kUsage)) return 0;
  int trials = 100;  // per grid point; 5 points => 500-trial sweep
  bool advisory = false;  // report the speedup but never fail on it
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--advisory") == 0) {
      advisory = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      trials = std::atoi(argv[i]);
    }
  }

  campaign::CampaignSpec spec;
  spec.units.push_back(
      campaign::Unit::protocol("cycle-cover", *campaign::make_protocol("cycle-cover")));
  spec.ns = {16, 24, 32, 48, 64};
  spec.trials = trials;
  spec.base_seed = 0xCA3Dull;

  const int hw_threads = campaign::resolve_threads(0);
  std::cout << "campaign: cycle-cover x ns{16,24,32,48,64} x " << trials
            << " trials = " << spec.ns.size() * static_cast<std::size_t>(trials)
            << " trials total; hardware threads: " << hw_threads << "\n\n";

  campaign::RunOptions serial;
  serial.threads = 1;
  const campaign::CampaignResult serial_result = campaign::run(spec, serial);

  campaign::RunOptions parallel;
  parallel.threads = hw_threads;
  const campaign::CampaignResult parallel_result = campaign::run(spec, parallel);

  // --- contract 1: bit-identical aggregates -------------------------------
  bool identical = serial_result.points.size() == parallel_result.points.size();
  if (identical) {
    for (std::size_t i = 0; i < serial_result.points.size(); ++i) {
      identical = identical && campaign::summarize(serial_result.points[i]) ==
                                   campaign::summarize(parallel_result.points[i]);
    }
  }

  TextTable table({"threads", "wall s", "mean(n=64)"});
  for (const auto* r : {&serial_result, &parallel_result}) {
    table.add_row({TextTable::integer(static_cast<std::uint64_t>(r->threads)),
                   TextTable::num(r->wall_seconds),
                   TextTable::num(r->points.back().convergence_steps.mean())});
  }
  std::cout << table;

  const double speedup = parallel_result.wall_seconds > 0.0
                             ? serial_result.wall_seconds / parallel_result.wall_seconds
                             : 0.0;
  std::cout << "\naggregates bit-identical across thread counts: "
            << (identical ? "yes" : "NO") << '\n'
            << "speedup (" << hw_threads << " threads vs serial): " << speedup << "x\n";

  if (!json_path.empty()) {
    const double total = static_cast<double>(serial_result.total_trials);
    std::ofstream file(json_path);
    file << "{\n  \"bench\": \"campaign_scaling\",\n"
         << "  \"threads\": " << hw_threads << ",\n"
         << "  \"trials\": " << serial_result.total_trials << ",\n"
         << "  \"speedup\": " << speedup << ",\n"
         << "  \"throughput\": {\n"
         << "    \"serial_trials_per_second\": "
         << (serial_result.wall_seconds > 0 ? total / serial_result.wall_seconds : 0.0)
         << ",\n"
         << "    \"parallel_trials_per_second\": "
         << (parallel_result.wall_seconds > 0 ? total / parallel_result.wall_seconds : 0.0)
         << "\n  }\n}\n";
    file.flush();
    if (!file) {
      std::cerr << "failed to write " << json_path << '\n';
      return 1;
    }
    std::cout << "wrote " << json_path << '\n';
  }

  bool ok = identical;
  if (hw_threads >= 4) {
    const bool fast_enough = speedup >= 3.0;
    if (advisory && serial_result.wall_seconds < kMinResolvedSerialSeconds) {
      // A serial side this short times thread start-up, not the pool.
      std::cout << ">= 3x on >= 4 cores: unresolved (serial side "
                << static_cast<long long>(serial_result.wall_seconds * 1000.0) << " ms)\n";
    } else {
      std::cout << ">= 3x on >= 4 cores: " << (fast_enough ? "PASS" : "FAIL")
                << (advisory ? " (advisory: not enforced)" : "") << '\n';
    }
    if (!advisory) ok = ok && fast_enough;
  } else {
    std::cout << "(fewer than 4 hardware threads: speedup reported, not judged)\n";
  }
  return ok ? 0 : 1;
}
