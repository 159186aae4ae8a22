// netcons_campaign: declare and execute a Monte-Carlo campaign from flags.
//
//   netcons_campaign --protocols global-star,cycle-cover --ns 20,40,80
//       --trials 100 --threads 8 --json out.json
//   netcons_campaign --processes one-way-epidemic --ns 50,100 --trials 500
//       --schedulers uniform,permutation --csv out.csv
//   netcons_campaign --protocols all --ns 16 --trials 20
//   netcons_campaign --protocols simple-global-line --ns 32 --trials 100
//       --faults none,crash:k=1,edge-burst:f=0.1 --threads 8 --json out.json
//   netcons_campaign --protocols simple-global-line --ns 64,128 --trials 200
//       --engine naive,census --json engines.json   # engine-equivalence grid
//   netcons_campaign --engine list                  # registered engines
//   netcons_campaign --protocols cycle-cover --ns 64 --trials 100000
//       --shard 0/3 --records shard0/          # machine 0 of a 3-way fan-out
//   netcons_campaign --protocols cycle-cover --ns 64 --trials 100000
//       --resume records/ --json out.json      # finish an interrupted run
//   netcons_campaign --list
//
// Every (unit, scheduler, faults, engine, n) grid point runs `--trials` independent trials
// on a thread pool, one trial per job, largest n first so the costliest
// trials never run last. Per-trial seeds are pure functions of (--seed, grid
// position), so the aggregates are bit-identical for any --threads value. Results print as a table and optionally export to
// JSON/CSV via the campaign result sink.
//
// --records DIR streams one JSONL record per completed trial into DIR
// (crash-safe: flushed per line). --shard i/k executes only the i-th of k
// disjoint grid slices — run k machines with the same spec and distinct
// --shard values, then fold their record directories with netcons_merge to
// get the exact summary an unsharded run would produce. --resume DIR skips
// every trial already recorded in DIR (validating that the records match
// this campaign spec) and completes the rest. --trial-cap N stops after N
// executed trials (a deterministic stand-in for "the process was killed").
// --telemetry DIR writes machine-readable observability artifacts into DIR:
// metrics.json (counter/gauge/histogram snapshot), trace.json (Chrome
// trace-event JSON, loadable in Perfetto), and heartbeat.jsonl (one
// progress point per period; tail it live with netcons_top). --progress N
// prints a human-readable progress line to stderr every N seconds.
// Telemetry is purely observational: summary documents are byte-identical
// with or without it (CI-gated).
#include "campaign/campaign.hpp"
#include "campaign/registry.hpp"
#include "campaign/spec_cli.hpp"
#include "campaign/result_sink.hpp"
#include "campaign/trial_record.hpp"
#include "faults/fault_plan.hpp"
#include "telemetry/heartbeat.hpp"
#include "telemetry/telemetry.hpp"
#include "util/table.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace netcons;

struct Options {
  campaign::SpecCli spec;
  int threads = 0;  // all cores
  std::optional<std::string> json_path;
  std::optional<std::string> csv_path;
  std::optional<std::string> records_dir;
  std::optional<std::string> resume_dir;
  int shard_index = 0;
  int shard_count = 1;
  std::uint64_t trial_cap = 0;
  std::optional<std::string> telemetry_dir;
  int progress = 0;       // stderr progress period in seconds; 0: off
  int trace_sample = 16;  // record every k-th per-trial span
  bool list = false;
  bool quiet = false;
};

void print_help(const char* argv0) {
  std::cout
      << "usage: " << argv0 << " [spec flags] [run flags]\n"
      << "       " << argv0 << " --list\n"
      << "\nDeclare and execute a Monte-Carlo campaign grid "
         "(unit x scheduler x faults x engine x n).\n"
      << "\nspec flags:\n"
      << campaign::spec_usage()
      << "\nrun flags:\n"
         "  --threads K             worker threads (default: all cores)\n"
         "  --json FILE             write the summary document (netcons-campaign-v3)\n"
         "  --csv FILE              write the summary as CSV\n"
         "  --records DIR           stream one JSONL trial record per completed trial\n"
         "  --shard I/K             execute only slice I of K (requires --records)\n"
         "  --resume DIR            skip trials already recorded in DIR\n"
         "  --trial-cap N           stop after N executed trials (crash-test stand-in)\n"
         "  --telemetry DIR         write metrics.json, trace.json, heartbeat.jsonl\n"
         "  --progress SECONDS      human-readable progress on stderr every period\n"
         "  --trace-sample K        record every K-th per-trial trace span (default 16)\n"
         "  --list                  print registered protocols/processes/schedulers/engines\n"
         "  --quiet                 suppress the result table and informational lines\n"
         "  --help                  this message\n"
         "\nSee docs/OPERATIONS.md for the runbook and docs/FILE_FORMATS.md for the\n"
         "emitted schemas.\n";
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--protocols a,b|all] [--processes a,b|all] --ns N1,N2,...\n"
               "       [--trials T] [--threads K] [--seed S] [--schedulers s1,s2]\n"
               "       [--faults none,crash:k=1,...] [--engine naive,census,...|list]\n"
               "       [--k K] [--c C] [--d D]\n"
               "       [--json FILE] [--csv FILE] [--quiet]\n"
               "       [--records DIR] [--shard I/K] [--resume DIR] [--trial-cap N]\n"
               "       [--telemetry DIR] [--progress SECONDS] [--trace-sample K]\n"
               "       "
            << argv0 << " --list\n"
            << "(--help for flag descriptions)\n";
  return 2;
}

std::optional<Options> parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const int spec = campaign::consume_spec_flag(opt.spec, argc, argv, i);
    if (spec == -1) return std::nullopt;
    if (spec == 1) continue;
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return (i + 1 < argc) ? argv[++i] : nullptr; };
    if (arg == "--help") {
      print_help(argv[0]);
      std::exit(0);
    } else if (arg == "--list") {
      opt.list = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--shard") {
      const char* v = next();
      if (!v) return std::nullopt;
      const std::string value = v;
      const std::size_t slash = value.find('/');
      const auto index = slash == std::string::npos
                             ? std::nullopt
                             : campaign::parse_i(value.substr(0, slash));
      const auto count = slash == std::string::npos
                             ? std::nullopt
                             : campaign::parse_i(value.substr(slash + 1));
      if (!index || !count || *count < 1 || *index < 0 || *index >= *count) {
        std::cerr << "--shard expects I/K with 0 <= I < K, got '" << value << "'\n";
        return std::nullopt;
      }
      opt.shard_index = *index;
      opt.shard_count = *count;
    } else if (arg == "--trial-cap") {
      const char* v = next();
      if (!v) return std::nullopt;
      char* end = nullptr;
      errno = 0;
      const std::uint64_t cap = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0' || errno == ERANGE || cap == 0) {
        std::cerr << "--trial-cap expects a positive integer, got '" << v << "'\n";
        return std::nullopt;
      }
      opt.trial_cap = cap;
    } else if (arg == "--json" || arg == "--csv" || arg == "--records" || arg == "--resume" ||
               arg == "--telemetry") {
      const char* v = next();
      if (!v) return std::nullopt;
      if (arg == "--json") opt.json_path = v;
      if (arg == "--csv") opt.csv_path = v;
      if (arg == "--records") opt.records_dir = v;
      if (arg == "--resume") opt.resume_dir = v;
      if (arg == "--telemetry") opt.telemetry_dir = v;
    } else if (arg == "--threads" || arg == "--progress" || arg == "--trace-sample") {
      const char* v = next();
      if (!v) return std::nullopt;
      const auto value = campaign::parse_i(v);
      if (!value) {
        std::cerr << arg << " expects an int-range integer, got '" << v << "'\n";
        return std::nullopt;
      }
      if (arg == "--threads") opt.threads = *value;
      if (arg == "--progress") {
        if (*value <= 0) {
          std::cerr << "--progress expects a positive period in seconds, got '" << v << "'\n";
          return std::nullopt;
        }
        opt.progress = *value;
      }
      if (arg == "--trace-sample") {
        if (*value <= 0) {
          std::cerr << "--trace-sample expects a positive integer, got '" << v << "'\n";
          return std::nullopt;
        }
        opt.trace_sample = *value;
      }
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return std::nullopt;
    }
  }
  return opt;
}

int list_engines() {
  std::cout << "engines:\n";
  for (const auto& name : campaign::engine_names()) std::cout << "  " << name << '\n';
  return 0;
}

int list_registry() {
  campaign::print_registry(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = parse(argc, argv);
  if (!parsed) return usage(argv[0]);
  Options opt = *parsed;  // mutable: the compiled-out-telemetry path clears flags
  if (opt.list) return list_registry();
  // `--engine list` prints the engine registry, mirroring --list's other axes.
  if (opt.spec.engines.size() == 1 && opt.spec.engines[0] == "list") return list_engines();

  std::string spec_error;
  const auto built = campaign::build_spec(opt.spec, &spec_error);
  if (!built) {
    std::cerr << spec_error << "\n";
    return usage(argv[0]);
  }
  const campaign::CampaignSpec& spec = *built;

  campaign::RunOptions run_options;
  run_options.threads = opt.threads;
  run_options.trial_cap = opt.trial_cap;
  if (opt.shard_count > 1) {
    run_options.select = [&spec, &opt](std::size_t point, int trial) {
      return campaign::in_shard(point, trial, spec.trials, opt.shard_index, opt.shard_count);
    };
  }

  // A shard run's work only survives through its record stream.
  const std::optional<std::string> records_dir =
      opt.records_dir ? opt.records_dir : opt.resume_dir;
  if (opt.shard_count > 1 && !records_dir) {
    std::cerr << "--shard without --records (or --resume) would discard the slice's "
                 "trials; pass --records DIR and merge with netcons_merge\n";
    return 2;
  }

  const campaign::CampaignHeader header = campaign::CampaignHeader::describe(spec);
  campaign::OutcomeMap resume_outcomes;
  std::optional<campaign::TrialRecordSink> sink;
  try {
    if (opt.resume_dir) {
      resume_outcomes = campaign::load_resume_outcomes(*opt.resume_dir, header);
      if (!resume_outcomes.empty()) run_options.resume = &resume_outcomes;
      if (!opt.quiet && std::filesystem::exists(*opt.resume_dir)) {
        std::cout << "resuming: " << resume_outcomes.size() << " trials already recorded in "
                  << *opt.resume_dir << '\n';
      }
    }
    if (records_dir) {
      std::filesystem::create_directories(*records_dir);
      const int generation =
          campaign::next_generation(*records_dir, opt.shard_index, opt.shard_count);
      const std::string path =
          (std::filesystem::path(*records_dir) /
           campaign::record_file_name(opt.shard_index, opt.shard_count, generation))
              .string();
      sink.emplace(path, header);
      run_options.on_trial = [&sink](std::size_t point, int trial, std::uint64_t seed,
                                     const campaign::TrialOutcome& outcome) {
        sink->write(campaign::TrialRecord{point, trial, seed, outcome});
      };
      if (!opt.quiet) std::cout << "recording trials to " << sink->path() << '\n';
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 1;
  }

  // Telemetry stack: registry/tracer published process-wide (the engines
  // and the campaign hot path read the ambient pointers), monitor handed to
  // run(). All stack-owned; the ambient pointers are cleared before the
  // snapshot so nothing writes during serialization.
  std::optional<telemetry::Registry> registry;
  std::optional<telemetry::Tracer> tracer;
  std::optional<telemetry::CampaignMonitor> monitor;
  std::ofstream heartbeat_file;
#if defined(NETCONS_TELEMETRY_DISABLED)
  // Honest failure beats empty artifacts: with the instrumentation compiled
  // out, nothing would ever reach the registry or the tracer.
  if (opt.telemetry_dir || opt.progress > 0) {
    std::cerr << "netcons_campaign: telemetry support was compiled out "
                 "(NETCONS_TELEMETRY=OFF); ignoring --telemetry/--progress\n";
    opt.telemetry_dir.reset();
    opt.progress = 0;
  }
#endif
  if (opt.telemetry_dir) {
    try {
      std::filesystem::create_directories(*opt.telemetry_dir);
    } catch (const std::exception& e) {
      std::cerr << "--telemetry: " << e.what() << '\n';
      return 1;
    }
    registry.emplace();
    tracer.emplace();
    tracer->set_sample_every(static_cast<std::uint64_t>(opt.trace_sample));
    telemetry::set_registry(&*registry);
    telemetry::set_tracer(&*tracer);
    const std::string heartbeat_path =
        (std::filesystem::path(*opt.telemetry_dir) / "heartbeat.jsonl").string();
    heartbeat_file.open(heartbeat_path, std::ios::binary | std::ios::trunc);
    if (!heartbeat_file) {
      std::cerr << "--telemetry: cannot write " << heartbeat_path << '\n';
      return 1;
    }
  }
  if (opt.telemetry_dir || opt.progress > 0) {
    telemetry::CampaignMonitor::Options monitor_options;
    monitor_options.period_seconds = opt.progress > 0 ? opt.progress : 2.0;
    monitor_options.heartbeat = heartbeat_file.is_open() ? &heartbeat_file : nullptr;
    monitor_options.progress_stderr = opt.progress > 0;
    monitor_options.registry = registry ? &*registry : nullptr;
    monitor.emplace(monitor_options);
    run_options.monitor = &*monitor;
  }

  campaign::CampaignResult result;
  try {
    result = campaign::run(spec, run_options);
  } catch (const std::exception& e) {
    // Typically a record-sink write failure (disk full, file removed)
    // surfacing through the worker pool; trial-level throws are absorbed
    // into per-point failure counts and never land here.
    std::cerr << e.what() << '\n';
    return 1;
  }

  // Always tell stderr what the run cost, telemetry or not: the cheapest
  // observability there is, and the line scripts grep for.
  {
    const double rate =
        result.wall_seconds > 0.0
            ? static_cast<double>(result.executed_trials) / result.wall_seconds
            : 0.0;
    std::fprintf(stderr, "netcons_campaign: %llu trials in %.3f s (%.1f trials/s)\n",
                 static_cast<unsigned long long>(result.executed_trials),
                 result.wall_seconds, rate);
  }

  if (opt.telemetry_dir) {
    telemetry::set_registry(nullptr);
    telemetry::set_tracer(nullptr);
    try {
      registry->write_snapshot(
          (std::filesystem::path(*opt.telemetry_dir) / "metrics.json").string());
      tracer->write_json((std::filesystem::path(*opt.telemetry_dir) / "trace.json").string());
    } catch (const std::exception& e) {
      std::cerr << e.what() << '\n';
      return 1;
    }
    if (!opt.quiet) std::cout << "wrote telemetry to " << *opt.telemetry_dir << '\n';
  }

  if (!result.complete) {
    // Sharded and/or capped: only the record stream holds the truth; a
    // summary over a partial grid would misrepresent the unrun trials.
    if (!opt.quiet) {
      std::cout << "partial run: executed " << result.executed_trials << " trials ("
                << result.resumed_trials << " resumed, grid "
                << result.total_trials << ") in " << result.wall_seconds << " s, "
                << result.total_failures << " failures\n";
      if (opt.trial_cap > 0 && result.executed_trials >= opt.trial_cap) {
        std::cout << "stopped at --trial-cap " << opt.trial_cap
                  << "; finish with --resume " << (records_dir ? *records_dir : "DIR") << '\n';
      }
    }
    if (opt.json_path || opt.csv_path) {
      std::cerr << "note: --json/--csv skipped for a partial run; merge the records with "
                   "netcons_merge instead\n";
    }
    return result.total_failures == 0 ? 0 : 1;
  }

  if (!opt.quiet) {
    TextTable table({"unit", "scheduler", "faults", "engine", "n", "trials", "failures",
                     "damaged", "mean", "median", "recovery", "residual"});
    for (const auto& point : result.points) {
      table.add_row({point.unit, point.scheduler, point.faults, point.engine,
                     TextTable::integer(static_cast<std::uint64_t>(point.n)),
                     TextTable::integer(static_cast<std::uint64_t>(point.trials)),
                     TextTable::integer(static_cast<std::uint64_t>(point.failures)),
                     TextTable::integer(static_cast<std::uint64_t>(point.damaged)),
                     TextTable::num(point.convergence_steps.mean()),
                     TextTable::num(point.convergence_steps.median()),
                     TextTable::num(point.recovery_steps.mean()),
                     TextTable::num(point.edges_residual.mean())});
    }
    std::cout << table;
    for (const auto& point : result.points) {
      if (point.failures > 0 && !point.first_error.empty()) {
        std::cerr << "note: " << point.unit << " n=" << point.n << ": first failure: "
                  << point.first_error << '\n';
      }
    }
    std::cout << result.total_trials << " trials over " << result.points.size()
              << " grid points on " << result.threads
              << " threads: " << result.wall_seconds << " s, " << result.total_failures
              << " failures\n";
  }

  if (opt.json_path) {
    std::ofstream file(*opt.json_path);
    file << campaign::to_json(result);
    if (!opt.quiet) std::cout << "wrote " << *opt.json_path << '\n';
  }
  if (opt.csv_path) {
    std::ofstream file(*opt.csv_path);
    file << campaign::to_csv(result);
    if (!opt.quiet) std::cout << "wrote " << *opt.csv_path << '\n';
  }
  return result.total_failures == 0 ? 0 : 1;
}
