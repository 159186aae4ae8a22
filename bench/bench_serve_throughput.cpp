// bench_serve_throughput: the serving hot path, measured end to end.
//
// Stands up the real serving stack in-process — telemetry Registry,
// campaign::Scheduler over a scratch cache, serve::Api, serve::HttpServer
// on a loopback port — warms the cache with one tiny campaign, then drives
// it with concurrent clients issuing the cache-hit request pair the
// daemon exists to make cheap:
//
//   POST /v1/campaigns   (identical spec -> fingerprint cache hit, 200)
//   GET  /v1/campaigns/{id}/summary   (file-streamed artifact)
//
// Reported as sustained requests/second across all clients. Correctness
// is enforced, not assumed: every POST must answer 200 with
// "cached": true and every summary body must be byte-identical to the
// first one fetched; any deviation fails the run (and the ctest entry).
//
// Usage: bench_serve_throughput [--clients N] [--requests M]
//                               [--min-rps R] [--json FILE]
//
// --min-rps R fails the run when the sustained rate drops below R.
// --json FILE writes the machine-readable metrics consumed by the nightly
// bench workflow's regression gate (tools/compare_bench.py, family
// "serve_throughput"): *_rps values are higher-is-better.
#include "bench_help.hpp"
#include "campaign/scheduler.hpp"
#include "campaign/spec_cli.hpp"
#include "serve/api.hpp"
#include "serve/http.hpp"
#include "telemetry/metrics.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace netcons;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Deletes the scratch cache on every exit path, not just the happy one.
struct ScratchDir {
  std::filesystem::path path;
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

constexpr const char* kSpecBody =
    "{\"protocols\": [\"cycle-cover\"], \"ns\": [24], \"trials\": 8, \"seed\": 7}";

}  // namespace

constexpr const char* kUsage =
    "usage: bench_serve_throughput [--clients C] [--requests R] [--min-rps X] [--json FILE]\n"
    "\n"
    "In-process serving stack under concurrent cache-hit requests.\n"
    "  --clients C   concurrent clients (default 8)\n"
    "  --requests R  request pairs per client (default 200)\n"
    "  --min-rps X   fail below X requests/s (default 0: off)\n"
    "  --json FILE   write the metrics\n";

int main(int argc, char** argv) {
  if (netcons::bench::help_requested(argc, argv, kUsage)) return 0;
  int clients = 8;
  int requests = 200;  // request pairs per client
  double min_rps = 0.0;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      clients = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--min-rps") == 0 && i + 1 < argc) {
      min_rps = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  if (clients < 1) clients = 1;
  if (requests < 1) requests = 1;

  // Per-process scratch cache: concurrent invocations must not collide.
  const ScratchDir scratch{std::filesystem::temp_directory_path() /
                           ("netcons_bench_serve_" +
                            std::to_string(static_cast<long>(::getpid())))};

  telemetry::Registry registry;
  campaign::Scheduler::Options scheduler_options;
  scheduler_options.cache_dir = scratch.path.string();
  scheduler_options.registry = &registry;
  campaign::Scheduler scheduler(scheduler_options);
  serve::Api api(scheduler, registry);

  serve::HttpServer::Options server_options;
  server_options.threads = clients < 8 ? clients : 8;
  serve::HttpServer server(server_options, [&api](const serve::HttpRequest& request) {
    return api.handle(request);
  });
  server.start();
  const int port = server.port();

  // --- warm: run the spec once so every timed request is a cache hit ------
  const auto warm_start = std::chrono::steady_clock::now();
  const serve::FetchResult accepted =
      serve::http_fetch("127.0.0.1", port, "POST", "/v1/campaigns", kSpecBody);
  if (accepted.status != 200 && accepted.status != 202) {
    std::cerr << "warm-up submit failed: " << accepted.status << " " << accepted.body;
    return 1;
  }
  const std::string id_marker = "\"id\": \"";
  const std::size_t id_at = accepted.body.find(id_marker);
  if (id_at == std::string::npos) {
    std::cerr << "warm-up submit returned no id: " << accepted.body;
    return 1;
  }
  std::string id = accepted.body.substr(id_at + id_marker.size());
  id = id.substr(0, id.find('"'));
  scheduler.wait(id);
  const double warm_seconds = seconds_since(warm_start);

  const std::string summary_target = "/v1/campaigns/" + id + "/summary";
  const serve::FetchResult reference = serve::http_fetch("127.0.0.1", port, "GET", summary_target);
  if (reference.status != 200 || reference.body.empty()) {
    std::cerr << "warm-up summary fetch failed: " << reference.status << "\n";
    return 1;
  }
  std::cout << "warm-up: campaign " << id << " computed in " << warm_seconds << " s, summary "
            << reference.body.size() << " bytes\n";

  // --- timed: concurrent clients hammer the cache-hit pair ----------------
  std::atomic<long> failures{0};
  const auto bench_start = std::chrono::steady_clock::now();
  std::vector<std::thread> drivers;
  drivers.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    drivers.emplace_back([&, c]() {
      for (int r = 0; r < requests; ++r) {
        try {
          const serve::FetchResult hit =
              serve::http_fetch("127.0.0.1", port, "POST", "/v1/campaigns", kSpecBody);
          if (hit.status != 200 || hit.body.find("\"cached\": true") == std::string::npos) {
            failures.fetch_add(1);
            continue;
          }
          const serve::FetchResult summary =
              serve::http_fetch("127.0.0.1", port, "GET", summary_target);
          if (summary.status != 200 || summary.body != reference.body) failures.fetch_add(1);
        } catch (const std::exception& error) {
          failures.fetch_add(1);
          if (c == 0 && r == 0) std::cerr << "client error: " << error.what() << "\n";
        }
      }
    });
  }
  for (std::thread& driver : drivers) driver.join();
  const double bench_seconds = seconds_since(bench_start);
  server.stop();

  const long total_requests = 2L * clients * requests;  // POST + GET per iteration
  const double rps = bench_seconds > 0 ? static_cast<double>(total_requests) / bench_seconds : 0;
  const double mean_ms =
      total_requests > 0 ? bench_seconds * 1000.0 * clients / static_cast<double>(total_requests)
                         : 0;
  const bool ok = failures.load() == 0 && (min_rps <= 0.0 || rps >= min_rps);

  std::cout << clients << " clients x " << requests << " request pairs: " << total_requests
            << " requests in " << bench_seconds << " s (" << rps << " req/s, mean "
            << mean_ms << " ms/request, " << failures.load() << " failures)\n";
  if (min_rps > 0.0 && rps < min_rps) {
    std::cerr << "FAIL: " << rps << " req/s below the required " << min_rps << "\n";
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    // warm_campaign_seconds stays outside the gated "serve_throughput"
    // object: it times a millisecond-scale campaign, far too noisy for the
    // nightly relative gate, but worth recording.
    out << "{\n  \"bench\": \"serve_throughput\",\n"
        << "  \"clients\": " << clients << ",\n"
        << "  \"requests\": " << total_requests << ",\n"
        << "  \"warm_campaign_seconds\": " << warm_seconds << ",\n"
        << "  \"serve_throughput\": {\n"
        << "    \"cache_hit_rps\": " << rps << ",\n"
        << "    \"mean_request_ms\": " << mean_ms << "\n  }\n}\n";
    out.flush();
    if (!out) {
      std::cerr << "failed to write " << json_path << '\n';
      return 1;
    }
    std::cout << "wrote " << json_path << '\n';
  }

  return ok ? 0 : 1;
}
