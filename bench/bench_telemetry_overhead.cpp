// Telemetry overhead gate: the instrumented campaign hot path with the
// full telemetry stack live (registry + tracer + heartbeat monitor) must
// run within --max-overhead (default 2%) of the telemetry-off baseline.
//
// The workload is a realistic campaign slice -- Cycle-Cover under the
// census engine, many small trials -- because that is where the
// instrumentation sits: sampled per-trial spans, per-trial engine metric
// publication, and the heartbeat's record_job after every trial (the
// campaign runs one trial per pool job).
//
// Measuring a 2% budget on a shared runner needs care, so the gate uses
// the median of per-block CPU-time ratios:
//
//   * process CPU time, not wall clock -- identical wall-clock runs vary
//     by tens of percent on shared runners (neighbor tenants, steal
//     time). CPU time still charges everything telemetry actually burns,
//     including the heartbeat ticker thread, while excluding time the
//     process never got.
//   * trials of n = 128 (~50 us), 1000 per campaign: telemetry costs a
//     fixed amount per trial and per campaign (the ticker thread, the
//     first and final heartbeat), so on ~20 us trials (n = 32) or short
//     campaigns that fixed cost alone sits near the bar and block noise
//     flips the verdict. A campaign of ~50 ms per side is still far
//     below any real sweep.
//   * off/on blocks: each block runs one off and one on campaign
//     back to back, alternating which side goes first, and scores
//     on / off - 1. Both sides of a block share the same frequency and
//     neighbor-load window, so drift cancels within the block.
//   * the median over blocks, not the ratio of totals: one block that a
//     neighbor tenant or a frequency step lands on moves a sum by its
//     whole size but moves the median by at most one rank. (Best-of-N was
//     measurably worse here: each side's minimum lands on a different
//     boost-frequency window, which alone swings the estimate by +-3%.)
//
// Wall-clock trial rates are reported alongside for the throughput family.
//
// Exit status: non-zero when the overhead gate fails (--max-overhead 0 or
// --advisory disables failing). --json FILE writes a document with a
// "throughput" object (higher-is-better, tracked by compare_bench.py) and
// an "overhead" object (lower-is-better, absolute-tolerance gate).
#include "bench_help.hpp"
#include "campaign/campaign.hpp"
#include "campaign/registry.hpp"
#include "telemetry/heartbeat.hpp"
#include "telemetry/telemetry.hpp"
#include "util/table.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace {

/// CPU seconds consumed by the whole process (all threads) so far.
double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Sample {
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
};

}  // namespace

constexpr const char* kUsage =
    "usage: bench_telemetry_overhead [--n N] [--trials T] [--blocks B] [--seed S]\n"
    "                                [--max-overhead X] [--advisory] [--json FILE]\n"
    "\n"
    "Telemetry-on vs telemetry-off campaign CPU time.\n"
    "  --n N             population (default 128)\n"
    "  --trials T        trials per campaign run (default 1000)\n"
    "  --blocks B        off/on blocks; the gate scores their median (default 81)\n"
    "  --seed S          base seed\n"
    "  --max-overhead X  fail above X (default 0.02)\n"
    "  --advisory        report but never fail\n"
    "  --json FILE       write the metrics\n";

int main(int argc, char** argv) {
  if (netcons::bench::help_requested(argc, argv, kUsage)) return 0;
  using namespace netcons;

  int n = 128;
  int trials = 1000;
  int blocks = 81;
  std::uint64_t seed = 0x5eedull;
  double max_overhead = 0.02;
  bool advisory = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) n = std::atoi(argv[++i]);
    if (std::strcmp(argv[i], "--trials") == 0 && i + 1 < argc) trials = std::atoi(argv[++i]);
    if (std::strcmp(argv[i], "--blocks") == 0 && i + 1 < argc) blocks = std::atoi(argv[++i]);
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    }
    if (std::strcmp(argv[i], "--max-overhead") == 0 && i + 1 < argc) {
      max_overhead = std::atof(argv[++i]);
    }
    if (std::strcmp(argv[i], "--advisory") == 0) advisory = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }

  campaign::CampaignSpec spec;
  spec.units.push_back(
      campaign::Unit::protocol("cycle-cover", *campaign::make_protocol("cycle-cover")));
  spec.ns = {n};
  spec.trials = trials;
  spec.engines.push_back(*campaign::make_engine("census"));
  spec.base_seed = seed;

  std::cout << "=== Telemetry overhead: cycle-cover/census, n = " << n << ", " << trials
            << " trials per run, " << blocks << " off/on blocks ===\n\n";

  // One campaign run, optionally under the full telemetry stack. The
  // telemetry-on side is the worst realistic case: a short heartbeat
  // period, the default trace sampling, and a live heartbeat stream
  // (into memory, so the comparison measures instrumentation, not disk).
  const auto run_once = [&](bool telemetry_on) -> Sample {
    telemetry::Registry registry;
    telemetry::Tracer tracer;
    std::ostringstream heartbeat;
    telemetry::CampaignMonitor::Options monitor_options;
    monitor_options.period_seconds = 0.05;
    monitor_options.heartbeat = &heartbeat;
    monitor_options.progress_stderr = false;
    monitor_options.registry = &registry;
    telemetry::CampaignMonitor monitor(monitor_options);

    campaign::RunOptions options;
    options.threads = 1;  // single-thread: overhead is not hidden by idle cores
    if (telemetry_on) {
      tracer.set_sample_every(16);
      telemetry::set_registry(&registry);
      telemetry::set_tracer(&tracer);
      options.monitor = &monitor;
    }
    const auto wall_start = std::chrono::steady_clock::now();
    const double cpu_start = process_cpu_seconds();
    const campaign::CampaignResult result = campaign::run(spec, options);
    Sample sample;
    sample.cpu_seconds = process_cpu_seconds() - cpu_start;
    sample.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
    telemetry::set_registry(nullptr);
    telemetry::set_tracer(nullptr);
    if (result.total_failures > 0) {
      std::cerr << "FAIL: " << result.total_failures << " trial failures in the workload\n";
      std::exit(1);
    }
    return sample;
  };

  // Warm-up both sides: page in code, data, and each side's thread_local
  // caches before anything scores.
  run_once(false);
  run_once(true);

  Sample total_off;
  Sample total_on;
  std::vector<double> block_overheads;
  for (int b = 0; b < blocks; ++b) {
    Sample off;
    Sample on;
    if (b % 2 == 0) {
      off = run_once(false);
      on = run_once(true);
    } else {
      on = run_once(true);
      off = run_once(false);
    }
    if (off.cpu_seconds > 0.0) block_overheads.push_back(on.cpu_seconds / off.cpu_seconds - 1.0);
    total_off.cpu_seconds += off.cpu_seconds;
    total_off.wall_seconds += off.wall_seconds;
    total_on.cpu_seconds += on.cpu_seconds;
    total_on.wall_seconds += on.wall_seconds;
  }

  const double total_trials = static_cast<double>(trials) * blocks;
  const double off_rate =
      total_off.wall_seconds > 0.0 ? total_trials / total_off.wall_seconds : 0.0;
  const double on_rate = total_on.wall_seconds > 0.0 ? total_trials / total_on.wall_seconds : 0.0;
  // Median block ratio (upper median for an even count: never the lower,
  // more favourable one).
  std::sort(block_overheads.begin(), block_overheads.end());
  const double overhead =
      block_overheads.empty() ? 0.0 : block_overheads[block_overheads.size() / 2];

  TextTable table({"config", "total cpu s", "total wall s", "trials/s"});
  table.add_row({"telemetry off", TextTable::num(total_off.cpu_seconds, 4),
                 TextTable::num(total_off.wall_seconds, 4), TextTable::num(off_rate, 1)});
  table.add_row({"telemetry on", TextTable::num(total_on.cpu_seconds, 4),
                 TextTable::num(total_on.wall_seconds, 4), TextTable::num(on_rate, 1)});
  std::cout << table << '\n';
  std::cout << "telemetry overhead (median of " << block_overheads.size()
            << " block ratios): " << TextTable::num(100.0 * overhead, 2) << "% (gate: <= "
            << TextTable::num(100.0 * max_overhead, 1) << "%)\n";
  if (!block_overheads.empty()) {
    const std::size_t k = block_overheads.size();
    std::cout << "block ratio quartiles: " << TextTable::num(100.0 * block_overheads[k / 4], 2)
              << "% / " << TextTable::num(100.0 * block_overheads[k / 2], 2) << "% / "
              << TextTable::num(100.0 * block_overheads[3 * k / 4], 2) << "%\n";
  }

  if (!json_path.empty()) {
    std::ofstream file(json_path);
    file << "{\n  \"bench\": \"telemetry_overhead\",\n"
         << "  \"n\": " << n << ",\n"
         << "  \"trials\": " << trials << ",\n"
         << "  \"blocks\": " << blocks << ",\n"
         << "  \"total_cpu_seconds_off\": " << total_off.cpu_seconds << ",\n"
         << "  \"total_cpu_seconds_on\": " << total_on.cpu_seconds << ",\n"
         << "  \"throughput\": {\n"
         << "    \"telemetry_off_trials_per_second\": " << off_rate << ",\n"
         << "    \"telemetry_on_trials_per_second\": " << on_rate << "\n  },\n"
         << "  \"overhead\": {\n"
         << "    \"telemetry_fraction\": " << overhead << "\n  }\n}\n";
    file.flush();
    if (!file) {
      std::cerr << "failed to write " << json_path << '\n';
      return 1;
    }
    std::cout << "wrote " << json_path << '\n';
  }

  if (max_overhead > 0.0 && overhead > max_overhead) {
    std::cout << (advisory ? "NOTE" : "FAIL") << ": telemetry overhead "
              << TextTable::num(100.0 * overhead, 2) << "% exceeds the "
              << TextTable::num(100.0 * max_overhead, 1) << "% gate\n";
    return advisory ? 0 : 1;
  }
  if (max_overhead > 0.0) {
    std::cout << "PASS: telemetry overhead is within "
              << TextTable::num(100.0 * max_overhead, 1) << "%\n";
  }
  return 0;
}
