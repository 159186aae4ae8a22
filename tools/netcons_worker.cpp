// netcons_worker: one campaign-fabric worker process (see src/fabric/).
//
//   curl -s -X POST localhost:7460/v1/campaigns
//       -d '{"protocols": ["cycle-cover"], "ns": [64], "trials": 1000,
//            "dispatch": "fabric"}'
//   netcons_worker --protocols cycle-cover --ns 64 --trials 1000
//       --connect 127.0.0.1:7460
//
// The worker must be launched with the same spec flags as the fabric job
// submitted to netcons_serve: it derives the job id from its own spec, and
// the daemon refuses a mismatch, naming the differing field. Granted
// leases execute through the stock campaign engine (same seeds, same
// engines, same fault plans) and stream records into the job's spool
// directory, which the daemon folds into the byte-identical single-host
// summary once every trial is committed.
#include "campaign/spec_cli.hpp"
#include "fabric/worker.hpp"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

namespace {

using namespace netcons;

struct Options {
  campaign::SpecCli spec;
  std::string host = "127.0.0.1";
  int port = 0;
  int threads = 0;
  double io_timeout = 30.0;
  std::string token;
  bool quiet = false;
};

void print_help(const char* argv0) {
  std::cout
      << "usage: " << argv0
      << " [spec flags] --connect HOST:PORT [worker flags]\n"
      << "\nExecute trial-range leases of the fabric job a netcons_serve daemon runs\n"
         "for the same campaign spec, streaming trial records into the job's spool.\n"
      << "\nspec flags:\n"
      << campaign::spec_usage()
      << "\nworker flags:\n"
         "  --connect HOST:PORT     the netcons_serve daemon's address (required)\n"
         "  --threads K             worker threads (default: all cores)\n"
         "  --io-timeout SECONDS    treat a silent daemon as dead after this\n"
         "                          (default 30; 0: block forever)\n"
         "  --token SECRET          bearer token; must match the daemon's --token\n"
         "                          (default: none)\n"
         "  --list                  print registered protocols/processes/schedulers/engines\n"
         "  --quiet                 suppress per-lease progress lines on stderr\n"
         "  --help                  this message\n"
         "\nWire spec: docs/serving-api.md. Runbook: docs/OPERATIONS.md.\n";
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [spec flags] --connect HOST:PORT\n"
               "       [--threads K] [--io-timeout SECONDS] [--token SECRET] [--quiet]\n"
               "(--help for flag descriptions)\n";
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
      campaign::print_registry(std::cout);
      std::exit(0);
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--connect") {
      const char* v = next();
      if (!v) return std::nullopt;
      const std::string value = v;
      const std::size_t colon = value.rfind(':');
      const auto port =
          colon == std::string::npos ? std::nullopt : campaign::parse_i(value.substr(colon + 1));
      if (!port || *port <= 0 || *port > 65535 || colon == 0) {
        std::cerr << "--connect expects HOST:PORT, got '" << value << "'\n";
        return std::nullopt;
      }
      opt.host = value.substr(0, colon);
      opt.port = *port;
    } else if (arg == "--token") {
      const char* v = next();
      if (!v) return std::nullopt;
      opt.token = v;
    } else if (arg == "--threads") {
      const char* v = next();
      if (!v) return std::nullopt;
      const auto value = campaign::parse_i(v);
      if (!value) {
        std::cerr << "--threads expects an int-range integer, got '" << v << "'\n";
        return std::nullopt;
      }
      opt.threads = *value;
    } else if (arg == "--io-timeout") {
      const char* v = next();
      if (!v) return std::nullopt;
      char* end = nullptr;
      const double value = std::strtod(v, &end);
      if (end == v || *end != '\0' || value < 0.0) {
        std::cerr << "--io-timeout expects a non-negative number of seconds, got '" << v
                  << "'\n";
        return std::nullopt;
      }
      opt.io_timeout = value;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return std::nullopt;
    }
  }
  if (opt.port == 0) {
    std::cerr << "--connect HOST:PORT is required\n";
    return std::nullopt;
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = parse(argc, argv);
  if (!parsed) return usage(argv[0]);
  const Options& opt = *parsed;

  std::string spec_error;
  const auto spec = campaign::build_spec(opt.spec, &spec_error);
  if (!spec) {
    std::cerr << spec_error << "\n";
    return usage(argv[0]);
  }

  fabric::WorkerOptions worker_options;
  worker_options.host = opt.host;
  worker_options.port = opt.port;
  worker_options.threads = opt.threads;
  worker_options.io_timeout_seconds = opt.io_timeout;
  worker_options.token = opt.token;
  worker_options.quiet = opt.quiet;

  try {
    const fabric::WorkerSummary summary = fabric::run_worker(*spec, worker_options);
    std::fprintf(stderr, "netcons_worker: worker %d executed %llu trials over %llu leases\n",
                 summary.worker, static_cast<unsigned long long>(summary.executed_trials),
                 static_cast<unsigned long long>(summary.leases));
    return 0;
  } catch (const std::exception& error) {
    std::cerr << error.what() << "\n";
    return 1;
  }
}
