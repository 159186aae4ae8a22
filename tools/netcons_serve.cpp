// netcons_serve: campaign-as-a-service — the long-lived daemon that
// accepts campaign specs over HTTP/1.1 JSON, deduplicates work by the spec
// fingerprint, and serves completed artifacts from an on-disk cache.
//
//   netcons_serve --cache cache/ --port 7460
//   netcons_serve --cache cache/ --port 0      # kernel-assigned; parse
//                                              # "netcons_serve listening on HOST:PORT"
//   curl -s -X POST localhost:7460/v1/campaigns
//       -d '{"protocols": ["cycle-cover"], "ns": [32], "trials": 50}'
//   curl -s localhost:7460/v1/campaigns/<id>            # status + progress
//   curl -s localhost:7460/v1/campaigns/<id>/summary    # netcons-campaign-v3
//   curl -s localhost:7460/v1/metrics                   # netcons-metrics-v1
//
// Identical in-flight specs coalesce onto one job; a completed spec's
// summary/records/report persist keyed by fingerprint, so re-submits are
// O(1) cache lookups and the bytes served are cmp-identical to what
// netcons_campaign / netcons_report emit for the same spec (CI-gated).
// With "dispatch": "fabric" a job hands trial-range leases to external
// netcons_worker processes through POST /v1/campaigns/{id}/join, /lease
// and /heartbeat on this same port (see docs/serving-api.md).
//
// Trust model: plain HTTP; bind to loopback or a trusted network only
// (docs/serving-api.md). --token SECRET
// additionally requires "Authorization: Bearer SECRET" on every request
// (401 otherwise) — a shared secret, not a substitute for network trust:
// the token and all traffic still travel in cleartext.
#include "campaign/scheduler.hpp"
#include "campaign/spec_cli.hpp"
#include "serve/api.hpp"
#include "serve/http.hpp"
#include "telemetry/metrics.hpp"

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

namespace {

using namespace netcons;

struct Options {
  std::string cache_dir;
  std::string host = "127.0.0.1";
  int port = 7460;
  int threads = 0;       // engine threads per job; 0: all cores
  int jobs = 1;          // campaign jobs executed concurrently
  int http_threads = 4;  // HTTP connection workers
  std::size_t cache_max = 0;
  double max_idle = 600.0;  // fabric dispatch: no live worker for this long
  std::string token;
  bool quiet = false;
};

void print_help(const char* argv0) {
  std::cout
      << "usage: " << argv0 << " --cache DIR [flags]\n"
      << "\nServe campaign specs over HTTP/1.1 JSON: POST /v1/campaigns submits a\n"
         "spec (deduplicated by fingerprint, answered from the cache when already\n"
         "computed), GET /v1/campaigns/ID polls status, GET /v1/campaigns/ID/\n"
         "{summary,summary.csv,records,report} streams artifacts byte-identical\n"
         "to the netcons_campaign / netcons_report CLIs, GET /v1/metrics snapshots\n"
         "telemetry. Wire spec: docs/serving-api.md.\n"
      << "\nflags:\n"
         "  --cache DIR             fingerprint-keyed result cache directory (required)\n"
         "  --host H                address to bind (default 127.0.0.1)\n"
         "  --port P                HTTP port (default 7460; 0: kernel-assigned,\n"
         "                          printed in the announce line on stdout)\n"
         "  --threads K             engine threads per campaign job (default: all cores)\n"
         "  --jobs N                campaign jobs executed concurrently (default 1)\n"
         "  --http-threads N        HTTP connection worker threads (default 4)\n"
         "  --cache-max N           keep at most N cache entries, evicting the\n"
         "                          least-recently-hit (default 0: unbounded)\n"
         "  --max-idle SECONDS      fabric dispatch: give up on a job with no live\n"
         "                          worker for this long (default 600; 0: never)\n"
         "  --token SECRET          require \"Authorization: Bearer SECRET\" on every\n"
         "                          request; anything else is answered 401\n"
         "                          (default: no authentication)\n"
         "  --quiet                 suppress informational lines on stderr\n"
         "  --help                  this message\n"
         "\nRunbook: docs/OPERATIONS.md. Emitted schemas: docs/FILE_FORMATS.md.\n";
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --cache DIR [--host H] [--port P] [--threads K] [--jobs N]\n"
               "       [--http-threads N] [--cache-max N] [--max-idle SECONDS]\n"
               "       [--token SECRET] [--quiet]\n"
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
    } else if (arg == "--cache" || arg == "--host" || arg == "--token") {
      const char* v = next();
      if (!v) return std::nullopt;
      if (arg == "--cache") opt.cache_dir = v;
      if (arg == "--host") opt.host = v;
      if (arg == "--token") opt.token = v;
    } else if (arg == "--port" || arg == "--threads" || arg == "--jobs" ||
               arg == "--http-threads" || arg == "--cache-max") {
      const char* v = next();
      if (!v) return std::nullopt;
      const auto value = campaign::parse_i(v);
      if (!value || *value < 0) {
        std::cerr << arg << " expects a non-negative integer, got '" << v << "'\n";
        return std::nullopt;
      }
      if (arg == "--port") opt.port = *value;
      if (arg == "--threads") opt.threads = *value;
      if (arg == "--jobs") opt.jobs = *value > 0 ? *value : 1;
      if (arg == "--http-threads") opt.http_threads = *value > 0 ? *value : 1;
      if (arg == "--cache-max") opt.cache_max = static_cast<std::size_t>(*value);
    } else if (arg == "--max-idle") {
      const char* v = next();
      if (!v) return std::nullopt;
      char* end = nullptr;
      const double value = std::strtod(v, &end);
      if (end == v || *end != '\0' || value < 0.0) {
        std::cerr << "--max-idle expects a non-negative number of seconds, got '" << v << "'\n";
        return std::nullopt;
      }
      opt.max_idle = value;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return std::nullopt;
    }
  }
  if (opt.cache_dir.empty()) {
    std::cerr << "--cache DIR is required (the fingerprint-keyed result cache)\n";
    return std::nullopt;
  }
  return opt;
}

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = parse(argc, argv);
  if (!parsed) return usage(argv[0]);
  const Options& opt = *parsed;

  telemetry::Registry registry;

  campaign::Scheduler::Options scheduler_options;
  scheduler_options.cache_dir = opt.cache_dir;
  scheduler_options.threads = opt.threads;
  scheduler_options.job_workers = opt.jobs;
  scheduler_options.cache_max_entries = opt.cache_max;
  scheduler_options.fabric_max_idle_seconds = opt.max_idle;
  scheduler_options.registry = &registry;

  try {
    campaign::Scheduler scheduler(scheduler_options);
    serve::Api api(scheduler, registry, opt.token);

    serve::HttpServer::Options server_options;
    server_options.host = opt.host;
    server_options.port = opt.port;
    server_options.threads = opt.http_threads;
    serve::HttpServer server(server_options,
                             [&api](const serve::HttpRequest& request) {
                               return api.handle(request);
                             });
    server.start();

    // Orchestrators parse this line to learn a kernel-assigned port.
    std::cout << "netcons_serve listening on " << opt.host << ":" << server.port() << "\n"
              << std::flush;
    if (!opt.quiet) {
      std::cerr << "netcons_serve: cache " << opt.cache_dir << ", " << opt.jobs
                << " job worker(s), " << opt.http_threads << " http thread(s)\n";
    }

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    while (g_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    if (!opt.quiet) std::cerr << "netcons_serve: shutting down\n";
    server.stop();
    // The scheduler destructor lets running jobs finish; their results
    // land in the cache for the next process.
  } catch (const std::exception& error) {
    std::cerr << error.what() << "\n";
    return 1;
  }
  return 0;
}
