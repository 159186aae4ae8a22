// perfbench_driver: one workload, one seed, one process. Prints a
// human-readable table, then the JSON result as the last stdout line.
// perfbench/run.py builds this and forwards its arguments.
#include "workload.hpp"

#include "campaign/spec_cli.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <thread>

namespace {

using namespace perfbench;

constexpr const char* kUsage =
    R"(usage: perfbench_driver --workload NAME --seconds S --work DIR --trace-out FILE
                        [--seed N] [--trace 0|1 | --traced]
       perfbench_driver --list-metrics
       perfbench_driver --help

Runs one benchmark workload for S seconds with inputs drawn from seed N
(default 1), checks every output, and prints a table followed by one JSON
line: {"correct", "attempted", "failed", "metrics"}. DIR is a scratch
directory, removed at exit. perfbench/run.py builds the driver and passes
every flag.
  --trace 0   (default) the end-to-end metrics, measured untraced
  --trace 1   the per-layer metrics, from spans the benchmark records around
              its calls into the library (also: --traced); the spans are
              written to --trace-out as a Chrome trace
Exit status: 0 when every check passed, 1 when any failed (the JSON line
still reports them), 2 on bad arguments.

workloads:
  large-n       census Cycle-Cover + Global-Star at n = 2^14
  paper-sweep   5 protocols x {uniform, proximity} x n in {128, 256, 512}
                on census, plus a naive leg at n = 64; records, merge, report
  serve-mixed   the in-process HTTP serving stack: cache hits beside cold
                submits
)";

std::string json_number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char text[64];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

bool known_workload(const std::string& name) {
  return std::find(kWorkloads.begin(), kWorkloads.end(), name) != kWorkloads.end();
}

/// Removes the run's scratch directory on every exit path.
struct ScratchDir {
  std::filesystem::path path;
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string work;
  std::string trace_out;
  bool list_metrics = false;
  const auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << argv[i] << " needs a value\n" << kUsage;
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else if (arg == "--list-metrics") {
      list_metrics = true;
    } else if (arg == "--workload") {
      options.workload = value(i);
    } else if (arg == "--seed") {
      const auto seed = netcons::campaign::parse_ll(value(i));
      if (!seed || *seed < 0) {
        std::cerr << "--seed needs a non-negative integer\n";
        return 2;
      }
      options.seed = static_cast<std::uint64_t>(*seed);
    } else if (arg == "--seconds") {
      const auto seconds = netcons::campaign::parse_ll(value(i));
      if (!seconds || *seconds < 1 || *seconds > 600) {
        std::cerr << "--seconds needs a whole number from 1 to 600\n";
        return 2;
      }
      options.seconds = static_cast<double>(*seconds);
    } else if (arg == "--trace") {
      const std::string mode = value(i);
      if (mode != "0" && mode != "1") {
        std::cerr << "--trace takes 0 or 1\n";
        return 2;
      }
      options.traced = mode == "1";
    } else if (arg == "--traced") {
      options.traced = true;
    } else if (arg == "--work") {
      work = value(i);
    } else if (arg == "--trace-out") {
      trace_out = value(i);
    } else {
      std::cerr << "unknown argument '" << arg << "'\n" << kUsage;
      return 2;
    }
  }

  if (list_metrics) {
    for (const MetricName& m : kEndToEnd) std::cout << "end_to_end " << m.name << ' ' << m.unit << '\n';
    for (const MetricName& m : kPerLayer) std::cout << "per_layer " << m.name << ' ' << m.unit << '\n';
    for (const std::string_view w : kWorkloads) std::cout << "workload " << w << '\n';
    return 0;
  }
  if (!known_workload(options.workload)) {
    std::cerr << (options.workload.empty() ? std::string("--workload is required")
                                           : "unknown workload '" + options.workload + "'")
              << "; valid workloads: large-n, paper-sweep, serve-mixed\n";
    return 2;
  }
  if (options.seconds <= 0 || work.empty() || trace_out.empty()) {
    std::cerr << "--seconds, --work and --trace-out are required\n" << kUsage;
    return 2;
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  options.threads = std::clamp(static_cast<int>(hardware == 0 ? 1 : hardware), 1, 4);
  options.work = work;
  options.trace = trace_out;
  const ScratchDir scratch{options.work};
  std::filesystem::create_directories(options.work);

  Result result;
  try {
    if (options.workload == "large-n") {
      result = run_large_n(options);
    } else if (options.workload == "paper-sweep") {
      result = run_paper_sweep(options);
    } else {
      result = run_serve_mixed(options);
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }

  // The emitted names must be exactly the table's (and BENCHMARK.json's).
  const auto& expected = options.traced ? std::vector<MetricName>(kPerLayer.begin(), kPerLayer.end())
                                        : std::vector<MetricName>(kEndToEnd.begin(), kEndToEnd.end());
  bool names_ok = result.metrics.size() == expected.size();
  for (std::size_t i = 0; names_ok && i < expected.size(); ++i) {
    names_ok = result.metrics[i].name == expected[i].name && result.metrics[i].unit == expected[i].unit;
  }
  if (!names_ok) {
    std::cerr << "perfbench: the workload emitted metrics that do not match the table\n";
    return 1;
  }

  std::string line = "{\"correct\": ";
  line += result.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    if (i > 0) line += ", ";
    line += "\"" + metric.name + "\": {\"value\": " + json_number(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return result.failed == 0 ? 0 : 1;
}
