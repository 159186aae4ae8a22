// Engine speedup and scaling gates for the census engine.
//
// Default mode -- CensusEngine vs NaiveEngine on Simple-Global-Line to
// stabilization. Simple-Global-Line is the paper's Omega(n^4) protocol: at
// n = 256 the naive engine executes tens of millions of scheduler calls
// per trial, almost all of them ineffective, while the census engine
// samples only the effective encounters and advances the step clock over
// the rest. Both engines run the same per-trial seed stream; every trial
// must stabilize to the spanning line, and the two engines' mean
// convergence steps are printed side by side (they agree in distribution
// -- the CI KS gate enforces that property on recorded campaigns; this
// bench enforces the speed claim). Under ctest (--min-speedup 5) the
// census engine must be at least 5x faster in wall-clock per trial;
// --min-speedup 0 disables the gate.
//
// --scaling -- the web-scale curve: ns per effective interaction for the
// census engine on Simple-Global-Line over n in {2^8 .. 2^16}, each point
// the median of 5 runs bounded to --scaling-eff effective interactions,
// taken in interleaved sweeps of the whole curve (which costs seconds; the
// points past World::kDenseNodeLimit = 2^13 keep their edges in World's
// pair set rather than the triangular bitset, so both storages are on the
// measured path -- the "storage" column names which). A near-flat curve is
// the point: per-interaction cost must not grow with the population. The
// in-binary gate fails if the largest-n point exceeds --flat-factor times
// the n = 1024 point; the nightly workflow additionally gates every point
// against the cached baseline ("scaling_curve" family in
// tools/compare_bench.py).
//
// --web-scale N -- nightly stabilization carry: Simple-Global-Line and
// Cycle-Cover to stabilization at n = N (default 100000) under the census
// engine, stabilization enforced in-binary. The step budget is passed
// saturated: at n = 10^5 the paper clock itself (Theta(n^4) ~ 10^20 steps)
// exceeds 2^64 -- the step counter wraps, so only quiescence (W == 0,
// clock-independent) certifies the run and the printed step figures are
// mod 2^64.
//
// --smoke N -- web-scale smoke (default 1000000): Cycle-Cover to
// stabilization at n = N, target checked, plus a bounded-effective-
// interaction Simple-Global-Line run, proving the pair-set world, census
// tables and O(n + m) output graph operate at 10^6 nodes without carrying
// the full Simple-Global-Line stabilization cost.
//
// --json FILE writes the mode's metrics for the nightly bench workflow's
// regression gate (tools/compare_bench.py). --help prints the flags.
#include "campaign/campaign.hpp"
#include "campaign/registry.hpp"
#include "core/census_engine.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

namespace {

using namespace netcons;

double seconds_since(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct CurvePoint {
  int n = 0;
  std::uint64_t effective = 0;
  double ns_per_effective = 0.0;
};

/// One bounded run: construct the engine, execute until `eff_budget`
/// effective interactions (or quiescence, whichever first -- small
/// populations stabilize inside the budget), and price each one.
CurvePoint measure_once(const ProtocolSpec& spec, int n, std::uint64_t eff_budget,
                        std::uint64_t seed) {
  CensusEngine engine(spec.protocol, n, seed);
  const auto budget_reached = [&engine, eff_budget](const World&) {
    return engine.effective_steps() >= eff_budget;
  };
  const auto start = std::chrono::steady_clock::now();
  (void)engine.run_until(budget_reached, std::numeric_limits<std::uint64_t>::max());
  const double wall = seconds_since(start);
  CurvePoint point;
  point.n = n;
  point.effective = engine.effective_steps();
  point.ns_per_effective =
      point.effective > 0 ? wall * 1e9 / static_cast<double>(point.effective) : 0.0;
  return point;
}

int run_scaling(int min_exp, int max_exp, std::uint64_t eff_budget, double flat_factor,
                std::uint64_t seed, const std::string& json_path) {
  const ProtocolSpec spec = *campaign::make_protocol("simple-global-line");
  std::cout << "=== Census scaling curve: Simple-Global-Line, " << eff_budget
            << " effective interactions per point ===\n\n";

  // Every repetition sweeps the whole curve before the next begins, so a
  // burst of load on a shared machine lands on all n alike instead of on
  // one point's block, and each point scores the median of its
  // repetitions: the flat-curve ratio then compares typical costs rather
  // than two single short runs.
  constexpr int kRepetitions = 5;
  std::vector<std::vector<CurvePoint>> runs(static_cast<std::size_t>(max_exp - min_exp + 1));
  for (int r = 0; r < kRepetitions; ++r) {
    for (int exp = min_exp; exp <= max_exp; ++exp) {
      const std::uint64_t point_seed =
          trial_seed(seed, static_cast<std::uint64_t>(exp)) + static_cast<std::uint64_t>(r);
      runs[static_cast<std::size_t>(exp - min_exp)].push_back(
          measure_once(spec, 1 << exp, eff_budget, point_seed));
    }
  }
  std::vector<CurvePoint> curve;
  TextTable table({"n", "storage", "census ns/eff", "eff (census)"});
  for (std::vector<CurvePoint>& point_runs : runs) {
    const auto median = point_runs.begin() + kRepetitions / 2;
    std::nth_element(point_runs.begin(), median, point_runs.end(),
                     [](const CurvePoint& a, const CurvePoint& b) {
                       return a.ns_per_effective < b.ns_per_effective;
                     });
    curve.push_back(*median);
    const int n = curve.back().n;
    table.add_row({TextTable::integer(static_cast<std::uint64_t>(n)),
                   n > World::kDenseNodeLimit ? "pair-set" : "bitset",
                   TextTable::num(curve.back().ns_per_effective, 1),
                   TextTable::integer(curve.back().effective)});
  }
  std::cout << table << '\n';

  if (!json_path.empty()) {
    std::ofstream file(json_path);
    file << "{\n  \"bench\": \"engine_scaling\",\n"
         << "  \"protocol\": \"simple-global-line\",\n"
         << "  \"effective_budget\": " << eff_budget << ",\n"
         << "  \"scaling_curve\": {\n"
         << "    \"census_ns_per_effective\": {\n";
    for (std::size_t i = 0; i < curve.size(); ++i) {
      file << "      \"n_" << curve[i].n << "\": " << curve[i].ns_per_effective
           << (i + 1 < curve.size() ? ",\n" : "\n");
    }
    file << "    }\n  }\n}\n";
    file.flush();
    if (!file) {
      std::cerr << "failed to write " << json_path << '\n';
      return 1;
    }
    std::cout << "wrote " << json_path << '\n';
  }

  if (flat_factor <= 0.0) return 0;
  if (curve.empty()) {
    std::cout << "FAIL: empty scaling curve\n";
    return 1;
  }
  const int reference_exp = std::min(std::max(10, min_exp), max_exp);
  const CurvePoint& reference = curve[static_cast<std::size_t>(reference_exp - min_exp)];
  const CurvePoint& top = curve.back();
  if (reference.ns_per_effective <= 0.0) {
    std::cout << "FAIL: census curve has no usable n = " << reference.n << " reference point\n";
    return 1;
  }
  const double ratio = top.ns_per_effective / reference.ns_per_effective;
  if (ratio > flat_factor) {
    std::cout << "FAIL: census ns/effective at n = " << top.n << " is "
              << TextTable::num(ratio, 2) << "x the n = " << reference.n
              << " figure (flat-curve gate: " << TextTable::num(flat_factor, 1) << "x)\n";
    return 1;
  }
  std::cout << "PASS: census curve is flat to " << TextTable::num(ratio, 2) << "x across n = "
            << (1 << min_exp) << " .. " << top.n << " (gate " << TextTable::num(flat_factor, 1)
            << "x)\n";
  return 0;
}

struct StabilizationRun {
  std::string protocol;
  bool stabilized = false;
  bool target_ok = false;
  std::uint64_t effective = 0;
  double wall_seconds = 0.0;
};

/// Census-engine run to stabilization with a saturated step budget:
/// termination comes from quiescence (W == 0), never the clock, which may
/// wrap past 2^64 total steps at these populations.
StabilizationRun stabilize(const std::string& name, int n, std::uint64_t seed) {
  const ProtocolSpec spec = *campaign::make_protocol(name);
  CensusEngine engine(spec.protocol, n, seed);
  Engine::StabilityOptions options;
  options.max_steps = std::numeric_limits<std::uint64_t>::max();
  options.certificate = spec.certificate;
  const auto start = std::chrono::steady_clock::now();
  const ConvergenceReport report = engine.run_until_stable(options);
  StabilizationRun run;
  run.protocol = name;
  run.wall_seconds = seconds_since(start);
  run.stabilized = report.stabilized;
  run.effective = engine.effective_steps();
  run.target_ok = report.stabilized && spec.target(engine.world().output_graph(spec.protocol));
  return run;
}

void print_stabilization(const std::vector<StabilizationRun>& runs, int n) {
  TextTable table({"protocol", "stabilized", "target", "effective", "wall s", "eff/s"});
  for (const StabilizationRun& run : runs) {
    table.add_row({run.protocol, run.stabilized ? "yes" : "NO", run.target_ok ? "ok" : "NO",
                   TextTable::integer(run.effective), TextTable::num(run.wall_seconds, 2),
                   TextTable::num(run.wall_seconds > 0.0
                                      ? static_cast<double>(run.effective) / run.wall_seconds
                                      : 0.0,
                                  0)});
  }
  std::cout << "n = " << n << " (storage: "
            << (n > World::kDenseNodeLimit ? "pair-set" : "bitset") << ")\n"
            << table << '\n';
}

int run_web_scale(int n, std::uint64_t seed, const std::string& json_path) {
  std::cout << "=== Web-scale stabilization: census engine, n = " << n << " ===\n\n";
  std::vector<StabilizationRun> runs;
  runs.push_back(stabilize("cycle-cover", n, trial_seed(seed, 1)));
  runs.push_back(stabilize("simple-global-line", n, trial_seed(seed, 2)));
  print_stabilization(runs, n);

  if (!json_path.empty()) {
    std::ofstream file(json_path);
    file << "{\n  \"bench\": \"web_scale\",\n  \"n\": " << n << ",\n  \"throughput\": {\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      std::string key = runs[i].protocol;
      for (char& c : key) {
        if (c == '-') c = '_';
      }
      file << "    \"" << key << "_effective_per_second\": "
           << (runs[i].wall_seconds > 0.0
                   ? static_cast<double>(runs[i].effective) / runs[i].wall_seconds
                   : 0.0)
           << (i + 1 < runs.size() ? ",\n" : "\n");
    }
    file << "  }\n}\n";
    file.flush();
    if (!file) {
      std::cerr << "failed to write " << json_path << '\n';
      return 1;
    }
    std::cout << "wrote " << json_path << '\n';
  }

  bool ok = true;
  for (const StabilizationRun& run : runs) {
    if (!run.stabilized || !run.target_ok) {
      std::cout << "FAIL: " << run.protocol << " did not stabilize to its target at n = " << n
                << '\n';
      ok = false;
    }
  }
  if (ok) std::cout << "PASS: both protocols stabilized to their targets at n = " << n << '\n';
  return ok ? 0 : 1;
}

int run_smoke(int n, std::uint64_t eff_budget, std::uint64_t seed) {
  std::cout << "=== Web-scale smoke: census engine, n = " << n << " ===\n\n";
  std::vector<StabilizationRun> runs;
  runs.push_back(stabilize("cycle-cover", n, trial_seed(seed, 1)));

  // Simple-Global-Line needs ~n^1.5 effective interactions to stabilize --
  // too many to carry at 10^6 nightly, so the smoke only proves the
  // machinery runs: a bounded slice of effective interactions.
  const ProtocolSpec sgl = *campaign::make_protocol("simple-global-line");
  const CurvePoint slice = measure_once(sgl, n, eff_budget, trial_seed(seed, 2));
  StabilizationRun sgl_run;
  sgl_run.protocol = "simple-global-line (bounded)";
  sgl_run.stabilized = slice.effective >= eff_budget;  // "ran the full slice"
  sgl_run.target_ok = sgl_run.stabilized;
  sgl_run.effective = slice.effective;
  sgl_run.wall_seconds = slice.ns_per_effective * static_cast<double>(slice.effective) / 1e9;
  runs.push_back(sgl_run);
  print_stabilization(runs, n);

  const bool ok = runs[0].stabilized && runs[0].target_ok && slice.effective >= eff_budget;
  std::cout << (ok ? "PASS" : "FAIL")
            << ": cycle-cover stabilized to its target and simple-global-line ran "
            << slice.effective << " effective interactions at n = " << n << '\n';
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace netcons;

  int n = 256;
  int trials = 5;
  std::uint64_t seed = 0x5eedull;
  double min_speedup = 5.0;
  bool scaling = false;
  int scaling_min_exp = 8;
  int scaling_max_exp = 16;
  std::uint64_t scaling_eff = 150000;
  double flat_factor = 2.0;
  int web_scale_n = 0;
  int smoke_n = 0;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::cout << "usage: bench_engine_speedup [flags]\n\n"
                   "Census vs naive engine speedup on Simple-Global-Line (default mode).\n\n"
                   "flags:\n"
                   "  --n N               population (default 256)\n"
                   "  --trials T          trials per engine (default 5)\n"
                   "  --seed S            base seed\n"
                   "  --min-speedup X     fail below X (default 5; 0 disables)\n"
                   "  --scaling           ns/effective curve over n = 2^min .. 2^max\n"
                   "  --scaling-min-exp E smallest exponent (default 8)\n"
                   "  --scaling-max-exp E largest exponent (default 16)\n"
                   "  --scaling-eff K     effective interactions per point (default 150000)\n"
                   "  --flat-factor X     flat-curve gate (default 2; 0 disables)\n"
                   "  --web-scale N       stabilize SGL and Cycle-Cover at n = N\n"
                   "  --smoke N           Cycle-Cover to its target plus a bounded SGL slice\n"
                   "  --json FILE         write the mode's metrics\n"
                   "  --help              print this and exit\n";
      return 0;
    }
    if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) n = std::atoi(argv[++i]);
    if (std::strcmp(argv[i], "--trials") == 0 && i + 1 < argc) trials = std::atoi(argv[++i]);
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    }
    if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      min_speedup = std::atof(argv[++i]);
    }
    if (std::strcmp(argv[i], "--scaling") == 0) scaling = true;
    if (std::strcmp(argv[i], "--scaling-min-exp") == 0 && i + 1 < argc) {
      scaling_min_exp = std::atoi(argv[++i]);
    }
    if (std::strcmp(argv[i], "--scaling-max-exp") == 0 && i + 1 < argc) {
      scaling_max_exp = std::atoi(argv[++i]);
    }
    if (std::strcmp(argv[i], "--scaling-eff") == 0 && i + 1 < argc) {
      scaling_eff = std::strtoull(argv[++i], nullptr, 10);
    }
    if (std::strcmp(argv[i], "--flat-factor") == 0 && i + 1 < argc) {
      flat_factor = std::atof(argv[++i]);
    }
    if (std::strcmp(argv[i], "--web-scale") == 0 && i + 1 < argc) {
      web_scale_n = std::atoi(argv[++i]);
    }
    if (std::strcmp(argv[i], "--smoke") == 0 && i + 1 < argc) smoke_n = std::atoi(argv[++i]);
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }

  if (scaling) return run_scaling(scaling_min_exp, scaling_max_exp, scaling_eff, flat_factor,
                                  seed, json_path);
  if (web_scale_n > 0) return run_web_scale(web_scale_n, seed, json_path);
  if (smoke_n > 0) return run_smoke(smoke_n, scaling_eff, seed);

  const ProtocolSpec spec = *campaign::make_protocol("simple-global-line");

  struct EngineRun {
    std::string name;
    double wall_seconds = 0.0;
    double mean_convergence = 0.0;
    int failures = 0;
  };

  std::cout << "=== Engine speedup: Simple-Global-Line, n = " << n << ", " << trials
            << " trials per engine ===\n\n";

  std::vector<EngineRun> runs;
  for (const std::string& name : campaign::engine_names()) {
    const campaign::EngineOption engine = *campaign::make_engine(name);
    EngineRun run;
    run.name = name;
    double total_convergence = 0.0;
    const auto start = std::chrono::steady_clock::now();
    for (int t = 0; t < trials; ++t) {
      const campaign::TrialOutcome outcome = campaign::run_protocol_trial(
          spec, n, trial_seed(seed, static_cast<std::uint64_t>(t)), {}, {}, engine.make);
      if (!outcome.success) ++run.failures;
      total_convergence += static_cast<double>(outcome.value);
    }
    run.wall_seconds = seconds_since(start);
    run.mean_convergence = trials > 0 ? total_convergence / trials : 0.0;
    runs.push_back(run);
  }

  TextTable table({"engine", "trials", "failures", "wall s", "s/trial", "mean conv. steps"});
  for (const EngineRun& run : runs) {
    table.add_row({run.name, TextTable::integer(static_cast<std::uint64_t>(trials)),
                   TextTable::integer(static_cast<std::uint64_t>(run.failures)),
                   TextTable::num(run.wall_seconds, 3),
                   TextTable::num(trials > 0 ? run.wall_seconds / trials : 0.0, 4),
                   TextTable::num(run.mean_convergence)});
  }
  std::cout << table << '\n';

  // Look the two gated engines up by name: the registry is built for
  // extension, and a reordered or grown engine list must not silently
  // change which ratio the nightly gate enforces.
  const auto find_run = [&runs](const std::string& name) -> const EngineRun& {
    for (const EngineRun& run : runs) {
      if (run.name == name) return run;
    }
    std::cerr << "engine '" << name << "' missing from the registry\n";
    std::exit(1);
  };
  const EngineRun& naive = find_run("naive");
  const EngineRun& census = find_run("census");
  const double speedup =
      census.wall_seconds > 0.0 ? naive.wall_seconds / census.wall_seconds : 0.0;
  std::cout << "census speedup vs naive: " << TextTable::num(speedup, 2) << "x (same seeds, "
            << "same stabilization criterion; convergence-step distributions agree -- see the "
               "CI KS gate)\n";

  if (!json_path.empty()) {
    std::ofstream file(json_path);
    file << "{\n  \"bench\": \"engine_speedup\",\n"
         << "  \"n\": " << n << ",\n"
         << "  \"trials\": " << trials << ",\n"
         << "  \"naive_wall_seconds\": " << naive.wall_seconds << ",\n"
         << "  \"census_wall_seconds\": " << census.wall_seconds << ",\n"
         << "  \"throughput\": {\n"
         << "    \"census_trials_per_second\": "
         << (census.wall_seconds > 0.0 ? trials / census.wall_seconds : 0.0) << ",\n"
         << "    \"census_speedup_vs_naive\": " << speedup << "\n  }\n}\n";
    file.flush();
    if (!file) {
      std::cerr << "failed to write " << json_path << '\n';
      return 1;
    }
    std::cout << "wrote " << json_path << '\n';
  }

  bool ok = true;
  for (const EngineRun& run : runs) {
    if (run.failures > 0) {
      std::cout << "FAIL: " << run.failures << " of " << trials << " " << run.name
                << " trials did not stabilize to the target line\n";
      ok = false;
    }
  }
  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::cout << "FAIL: census speedup " << TextTable::num(speedup, 2) << "x is below the "
              << TextTable::num(min_speedup, 1) << "x gate\n";
    ok = false;
  }
  if (ok && min_speedup > 0.0) {
    std::cout << "PASS: census engine is >= " << TextTable::num(min_speedup, 1)
              << "x faster to stabilization\n";
  }
  return ok ? 0 : 1;
}
