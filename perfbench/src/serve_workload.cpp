// The `serve-mixed` workload: the in-process serving stack (campaign
// Scheduler over a cache directory, serve::Api, serve::HttpServer on a
// loopback port) driven through http_fetch by a closed loop of clients.
//
// Each client repeats POST /v1/campaigns -> GET .../summary -> GET
// .../report. Most POSTs name a spec of the working set, cached during
// set-up. Client 0 also submits a fresh spec as every kMissEvery-th POST;
// it misses, is polled until done, and is promoted into the cache by the
// daemon. Every body is checked byte for byte against what the library
// produces in-process for the same spec.
//
// Clients and HTTP workers are each half the cores, so the clients, the
// workers and the daemon's job thread do not oversubscribe the machine.
#include "instrument.hpp"
#include "workload.hpp"

#include "campaign/scheduler.hpp"
#include "campaign/spec_cli.hpp"
#include "campaign/trial_record.hpp"
#include "serve/api.hpp"
#include "serve/http.hpp"
#include "telemetry/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using netcons::campaign::CampaignSpec;
using netcons::campaign::SpecCli;

constexpr int kWorkingSet = 8;
constexpr int kWarmN = 128;  ///< Population of the working set's specs.
/// Population of a cold submit's spec: about 12 ms of engine work, so the
/// daemon's file and thread hand-offs, whose latency varies with the host,
/// are the smaller part of a miss.
constexpr int kColdN = 256;
constexpr int kMissEvery = 100;
constexpr std::size_t kCacheMax = kWorkingSet + 16;
constexpr int kSetupRepeats = 9;
/// The timed window is cut into slices. Request rate and latency are taken
/// per slice and reported as medians over the slices, so a few seconds of
/// host contention do not move them; traced runs alternate slices.
constexpr double kSliceSeconds = 1.0;

struct SpecDoc {
  SpecCli cli;
  std::string body;  ///< The POST /v1/campaigns document.
};

/// A small census campaign: two protocols at population n, 8 trials per point.
/// The shape is fixed by `slot` (working-set entries cycle through protocol
/// pairs; cold submits all use slot 0), so every seed asks the daemon for
/// the same amount of work; `seed` only picks the trial seeds. Populations
/// stay small (kWarmN, kColdN): no large trial runs in this workload.
SpecDoc make_spec(std::uint64_t seed, std::size_t slot, int n) {
  static const char* const kProtocols[] = {"global-star", "cycle-cover", "fast-global-line",
                                           "simple-global-line", "global-ring"};
  SpecDoc doc;
  doc.cli.protocols = {kProtocols[slot % 5], kProtocols[(slot + 1) % 5]};
  doc.cli.ns = {n};
  doc.cli.engines = {"census"};
  doc.cli.trials = 8;
  doc.cli.seed = seed >> 12;
  doc.body = "{\"protocols\": [\"" + doc.cli.protocols[0] + "\", \"" + doc.cli.protocols[1] +
             "\"], \"ns\": [" + std::to_string(n) +
             "], \"engines\": [\"census\"], \"trials\": 8, \"seed\": " +
             std::to_string(doc.cli.seed) + "}";
  return doc;
}

/// Bodies of cold submits are kept as (length, hash) until the timed
/// window ends, so memory barely grows with the request rate.
struct Digest {
  std::size_t size = 0;
  std::size_t hash = 0;
  bool operator==(const Digest&) const = default;
};

Digest digest(const std::string& body) { return {body.size(), std::hash<std::string>{}(body)}; }

CampaignSpec build(const SpecCli& cli) {
  std::optional<CampaignSpec> spec = netcons::campaign::build_spec(cli);
  if (!spec) throw std::runtime_error("perfbench: a serve spec failed to build");
  return std::move(*spec);
}

/// The bytes the daemon must serve for a spec, computed in-process.
struct Expected {
  std::string summary;
  std::string report;
  bool ok = false;  ///< Every trial succeeded and the rebuilt summary matched.
};

Expected expected_for(const SpecCli& cli, const fs::path& records, int threads) {
  const LegRun leg = run_leg(build(cli), records, threads, nullptr);
  fs::remove(records);
  return {leg.summary, leg.report, leg.rebuilt_matches && leg.failed_trials == 0};
}

std::string id_of(const std::string& body) {
  const std::string marker = "\"id\": \"";
  const std::size_t at = body.find(marker);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + marker.size();
  return body.substr(begin, body.find('"', begin) - begin);
}

/// The serving stack, declared in destruction order: the server stops
/// first, then the Api, then the Scheduler joins its job workers.
struct Stack {
  netcons::telemetry::Registry registry;
  std::unique_ptr<netcons::campaign::Scheduler> scheduler;
  std::unique_ptr<netcons::serve::Api> api;
  std::unique_ptr<netcons::serve::HttpServer> server;
  int port = -1;

  ~Stack() {
    if (server) server->stop();
  }
};

/// What the job executor (Scheduler::Options::executor, the daemon's
/// campaign::run seam) observes: every trial the daemon runs, and the wall
/// time of every campaign::run.
struct JobObserver {
  TrialLog log;
  std::atomic<std::uint64_t> failed_trials{0};
  std::atomic<std::int64_t> campaign_ns{0};
};

std::unique_ptr<Stack> make_stack(const fs::path& cache, int threads, JobObserver& observer) {
  namespace campaign = netcons::campaign;
  auto stack = std::make_unique<Stack>();
  campaign::Scheduler::Options options;
  options.cache_dir = cache.string();
  // One engine thread per job: the specs are small, and more runnable
  // threads beside the clients and HTTP workers only add wake-up latency.
  options.threads = 1;
  // A capped cache, as a long-running daemon keeps it (--cache-max). The
  // working set is hit constantly and stays; cold entries are evicted a few
  // submits after they land, so a run does not pile up hundreds of entry
  // directories to delete at exit.
  options.cache_max_entries = kCacheMax;
  options.registry = &stack->registry;
  options.executor = [&observer](const CampaignSpec& spec, const campaign::RunOptions& run) {
    const std::vector<campaign::GridPoint> grid = campaign::expand_grid(spec);
    campaign::RunOptions wrapped = run;
    wrapped.on_trial = [&observer, &grid, inner = run.on_trial](
                           std::size_t point, int trial, std::uint64_t seed,
                           const campaign::TrialOutcome& outcome) {
      finish_trial(observer.log, grid[point].unit);
      if (!outcome.success || !outcome.target_ok) observer.failed_trials.fetch_add(1);
      const std::size_t bytes =
          trace::enabled()
              ? campaign::record_line(campaign::TrialRecord{point, trial, seed, outcome}).size() + 1
              : 0;
      trace::Scope scope("record_write");
      if (scope.active()) scope.span().bytes = bytes;
      if (inner) inner(point, trial, seed, outcome);
    };
    const std::int64_t begin = trace::now_ns();
    campaign::CampaignResult result;
    {
      const trace::Scope scope("campaign");
      result = campaign::run(instrument(spec, trace::enabled()), wrapped);
    }
    observer.campaign_ns.fetch_add(trace::now_ns() - begin);
    return result;
  };
  stack->scheduler = std::make_unique<campaign::Scheduler>(options);
  stack->api = std::make_unique<netcons::serve::Api>(*stack->scheduler, stack->registry);
  netcons::serve::HttpServer::Options server_options;
  server_options.threads = threads;
  Stack* raw = stack.get();
  stack->server = std::make_unique<netcons::serve::HttpServer>(
      server_options,
      [raw](const netcons::serve::HttpRequest& request) { return raw->api->handle(request); });
  stack->server->start();
  stack->port = stack->server->port();
  return stack;
}

/// Stand the stack up over an empty cache, warm it with the working set,
/// and restart it. Returns the set-up time; fills `ids` with the working
/// set's job ids.
double set_up(const fs::path& cache, int threads, JobObserver& observer,
              const std::vector<SpecDoc>& working_set, std::unique_ptr<Stack>& stack,
              std::vector<std::string>& ids) {
  fs::remove_all(cache);
  const double start = now_s();
  stack = make_stack(cache, threads, observer);
  ids.clear();
  for (const SpecDoc& doc : working_set) {
    const auto posted =
        netcons::serve::http_fetch("127.0.0.1", stack->port, "POST", "/v1/campaigns", doc.body);
    if (posted.status != 200 && posted.status != 202) {
      throw std::runtime_error("perfbench: warm-up submit answered " +
                               std::to_string(posted.status) + ": " + posted.body);
    }
    ids.push_back(id_of(posted.body));
  }
  for (const std::string& id : ids) {
    if (stack->scheduler->wait(id).state != netcons::campaign::JobState::kDone) {
      throw std::runtime_error("perfbench: warm-up campaign " + id + " failed");
    }
  }
  // Serve from a restarted daemon over the warm cache. A Scheduler answers
  // hits on jobs it ran itself from memory, without refreshing the entry's
  // LRU time, so under the cache cap it would evict the working set.
  stack.reset();
  stack = make_stack(cache, threads, observer);
  return now_s() - start;
}

/// A cold submit: its spec is make_spec(cold_seed(seed, post), 0, kColdN).
struct Miss {
  std::uint64_t post = 0;
  Digest summary;
  Digest report;
};

std::uint64_t cold_seed(std::uint64_t seed, std::uint64_t post) { return mix_seed(seed, 3, post); }

/// One client's tallies (merged after the clients join). Latencies go to
/// fixed-size histograms, one per slice, so the client's memory does not
/// grow with the request rate.
struct Client {
  std::vector<LogHistogram> request_ms;  ///< Cache-hit latencies, per slice.
  LogHistogram miss_ms;
  std::vector<Miss> misses;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::vector<std::uint64_t> per_slice;  ///< Requests started in each slice.
};

}  // namespace

Result run_serve_mixed(const Options& options) {
  Result out;
  const int clients_n = std::max(1, options.threads / 2);  // Also the HTTP workers.
  std::vector<SpecDoc> working_set;
  for (int i = 0; i < kWorkingSet; ++i) {
    working_set.push_back(
        make_spec(mix_seed(options.seed, 1, static_cast<std::uint64_t>(i)),
                  static_cast<std::size_t>(i), kWarmN));
  }

  JobObserver observer;
  std::unique_ptr<Stack> stack;
  std::vector<std::string> ids;
  std::vector<double> setups;
  netcons::telemetry::Registry reference;  // census.* of the warm-up jobs.
  std::int64_t reference_from = 0, reference_to = 0;
  const int repeats = options.traced ? 1 : kSetupRepeats;
  for (int i = 0; i < repeats; ++i) {
    stack.reset();
    const bool last = i + 1 == repeats;
    if (options.traced && last) {
      trace::set_enabled(true);
      set_publish_registry(&reference);
      reference_from = trace::now_ns();
    }
    setups.push_back(set_up(options.work / ("cache-" + std::to_string(i)), clients_n, observer,
                            working_set, stack, ids));
    if (options.traced && last) {
      reference_to = trace::now_ns();
      set_publish_registry(nullptr);
      trace::set_enabled(false);
    }
  }

  std::vector<Expected> expected;
  for (int i = 0; i < kWorkingSet; ++i) {
    expected.push_back(expected_for(working_set[static_cast<std::size_t>(i)].cli,
                                    options.work / "expected.jsonl", options.threads));
    out.attempted += 1;
    if (!expected.back().ok) out.failed += 1;
  }

  // ---- measured: a closed loop of clients -------------------------------
  observer.log.clear();
  observer.campaign_ns.store(0);
  const std::uint64_t hits_before = counter_value(stack->registry, "scheduler.cache_hits");
  const std::uint64_t misses_before = counter_value(stack->registry, "scheduler.cache_misses");
  const std::uint64_t errors_before = counter_value(stack->registry, "serve.errors");
  std::atomic<bool> stop{false};
  std::vector<Client> clients(static_cast<std::size_t>(clients_n));
  const double start = now_s();
  const std::int64_t start_ns = trace::now_ns();
  const int port = stack->port;

  const auto client_main = [&](int c) {
    Client& me = clients[static_cast<std::size_t>(c)];
    std::uint64_t draw = mix_seed(options.seed, 2, static_cast<std::uint64_t>(c));
    me.request_ms.reserve(static_cast<std::size_t>(options.seconds / kSliceSeconds) + 2);
    // `hit`: a cache-hit request, whose latency goes to request_ms (the
    // cold path's requests are timed as a whole, by miss_ms).
    const auto fetch = [&](const char* span, const std::string& method, const std::string& target,
                           const std::string& body, bool hit) {
      const double begin = now_s();
      const auto slice = static_cast<std::size_t>((begin - start) / kSliceSeconds);
      if (me.per_slice.size() <= slice) {
        me.per_slice.resize(slice + 1, 0);
        me.request_ms.resize(slice + 1);
      }
      ++me.per_slice[slice];
      netcons::serve::FetchResult result;
      {
        const trace::Scope scope(span);
        try {
          result = netcons::serve::http_fetch("127.0.0.1", port, method, target, body);
        } catch (const std::exception&) {
          result.status = 0;
        }
      }
      if (hit) me.request_ms[slice].add((now_s() - begin) * 1e3);
      ++me.requests;
      return result;
    };
    for (std::uint64_t p = 1; !stop.load(std::memory_order_relaxed); ++p) {
      // Client 0 alone submits cold specs, as every kMissEvery-th POST:
      // cold submits never queue behind one another, so a miss times one
      // job, not the job queue's state.
      if (c == 0 && p % kMissEvery == 0) {
        const SpecDoc doc = make_spec(cold_seed(options.seed, p), 0, kColdN);
        const double begin = now_s();
        const auto posted = fetch("http.post", "POST", "/v1/campaigns", doc.body, false);
        const std::string id = id_of(posted.body);
        if ((posted.status != 202 && posted.status != 200) || id.empty()) {
          ++me.failed;
          continue;
        }
        bool done = posted.status == 200;
        while (!done) {
          const auto polled = fetch("http.poll", "GET", "/v1/campaigns/" + id, {}, false);
          if (polled.status != 200 ||
              polled.body.find("\"state\": \"failed\"") != std::string::npos) {
            ++me.failed;
            break;
          }
          done = polled.body.find("\"state\": \"done\"") != std::string::npos;
          if (!done) std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        if (!done) continue;
        const auto summary = fetch("http.summary", "GET", "/v1/campaigns/" + id + "/summary", {}, false);
        me.miss_ms.add((now_s() - begin) * 1e3);
        const auto report = fetch("http.report", "GET", "/v1/campaigns/" + id + "/report", {}, false);
        if (summary.status != 200 || report.status != 200) {
          ++me.failed;
          continue;
        }
        me.misses.push_back({p, digest(summary.body), digest(report.body)});
        continue;
      }
      draw = mix_seed(draw, p);
      const std::size_t i = draw % kWorkingSet;
      const auto posted = fetch("http.post", "POST", "/v1/campaigns", working_set[i].body, true);
      const bool cached = posted.status == 200 &&
                          posted.body.find("\"cached\": true") != std::string::npos &&
                          id_of(posted.body) == ids[i];
      const auto summary = fetch("http.summary", "GET", "/v1/campaigns/" + ids[i] + "/summary", {}, true);
      const auto report = fetch("http.report", "GET", "/v1/campaigns/" + ids[i] + "/report", {}, true);
      if (!cached) ++me.failed;
      if (summary.status != 200 || summary.body != expected[i].summary) ++me.failed;
      if (report.status != 200 || report.body != expected[i].report) ++me.failed;
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < clients_n; ++c) threads.emplace_back(client_main, c);
  std::thread toggler;
  if (options.traced) {
    // Odd slices traced, even slices not: the request-rate ratio between
    // them is the tracing overhead.
    toggler = std::thread([&] {
      for (int slice = 0; !stop.load(); ++slice) {
        trace::set_enabled(slice % 2 == 1);
        const double until = start + (slice + 1) * kSliceSeconds;
        while (!stop.load() && now_s() < until) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }
      trace::set_enabled(false);
    });
  }
  while (now_s() < start + options.seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (std::thread& thread : threads) thread.join();
  if (toggler.joinable()) toggler.join();
  const double wall = now_s() - start;
  const std::int64_t end_ns = trace::now_ns();
  const double peak_mb = peak_rss_mb();  // Before any tally is merged.
  const std::vector<double> trial_ms = observer.log.since(start);
  const double campaign_s = static_cast<double>(observer.campaign_ns.load()) / 1e9;

  Client total;
  std::vector<std::uint64_t> slices;
  for (Client& client : clients) {
    if (total.request_ms.size() < client.request_ms.size()) {
      total.request_ms.resize(client.request_ms.size());
    }
    for (std::size_t s = 0; s < client.request_ms.size(); ++s) {
      total.request_ms[s].merge(client.request_ms[s]);
    }
    total.miss_ms.merge(client.miss_ms);
    for (Miss& miss : client.misses) total.misses.push_back(std::move(miss));
    total.requests += client.requests;
    total.failed += client.failed;
    if (slices.size() < client.per_slice.size()) slices.resize(client.per_slice.size(), 0);
    for (std::size_t s = 0; s < client.per_slice.size(); ++s) slices[s] += client.per_slice[s];
  }
  const std::uint64_t hits = counter_value(stack->registry, "scheduler.cache_hits") - hits_before;
  const std::uint64_t misses =
      counter_value(stack->registry, "scheduler.cache_misses") - misses_before;
  const std::uint64_t http_errors = counter_value(stack->registry, "serve.errors") - errors_before;
  stack.reset();

  // ---- verification: every cold submit's bodies against in-process bytes
  if (options.traced) trace::set_enabled(true);
  const std::int64_t artifacts_from = trace::now_ns();
  for (const Miss& miss : total.misses) {
    const Expected want = expected_for(make_spec(cold_seed(options.seed, miss.post), 0, kColdN).cli,
                                       options.work / "expected.jsonl", options.threads);
    out.attempted += 1;
    if (!want.ok || !(digest(want.summary) == miss.summary) || !(digest(want.report) == miss.report)) {
      out.failed += 1;
    }
  }
  trace::set_enabled(false);
  out.attempted += total.requests + trial_ms.size();
  out.failed += total.failed + observer.failed_trials.load();

  say("serve-mixed: " + std::to_string(clients_n) + " closed-loop clients, " +
      std::to_string(clients_n) + " HTTP workers, " + std::to_string(total.requests) +
      " requests in " + fixed(wall, 2) + " s, " + std::to_string(total.misses.size()) +
      " cold submits (every " + std::to_string(kMissEvery) + "th POST of client 0), " +
      std::to_string(trial_ms.size()) + " daemon trials, " + std::to_string(out.failed) +
      " failed");

  if (!options.traced) {
    // Medians over the whole slices of the window.
    const auto whole = std::min({static_cast<std::size_t>(wall / kSliceSeconds), slices.size(),
                                 total.request_ms.size()});
    std::vector<double> rates, p50s, p90s, p99s;
    std::uint64_t requests = 0, fewest = UINT64_MAX;
    for (std::size_t s = 0; s < whole; ++s) {
      const LogHistogram& slice = total.request_ms[s];
      rates.push_back(static_cast<double>(slices[s]) / kSliceSeconds);
      p50s.push_back(slice.quantile(0.5));
      p90s.push_back(slice.quantile(0.9));
      p99s.push_back(slice.quantile(0.99));
      requests += slice.count();
      fewest = std::min(fewest, slice.count());
    }
    const double p50 = quantile(p50s, 0.5);
    const double p90 = quantile(p90s, 0.5);
    const double p99 = quantile(p99s, 0.5);
    const double rate = quantile(rates, 0.5);
    say("  setup_s        " + fixed(quantile(setups, 0.5), 4) + "  (median of " +
        std::to_string(setups.size()) + " set-ups: stack + " + std::to_string(kWorkingSet) +
        " warm campaigns)");
    say("  trials_per_s   " + fixed(static_cast<double>(trial_ms.size()) / campaign_s, 2) +
        "  (" + std::to_string(trial_ms.size()) + " daemon trials / " + fixed(campaign_s, 3) +
        " s inside the daemon's campaign::run)");
    say("  req_per_s      " + fixed(rate, 1) + "  (median of " + std::to_string(whole) + " " +
        fixed(kSliceSeconds, 1) + " s slices; " + fixed(static_cast<double>(total.requests) / wall, 1) +
        " over the window)");
    say("  req_ms         p50 " + fixed(p50, 4) + "  p90 " + fixed(p90, 4) + "  p99 " + fixed(p99, 4) +
        "  (medians over the slices; " + std::to_string(requests) + " cache-hit requests" +
        (tail_reportable(fewest, 99) ? "" : "; a slice's p99 has < 10 samples beyond it") + ")");
    say("  miss_ms_p50    " + fixed(total.miss_ms.quantile(0.5)) + "  (" +
        std::to_string(total.miss_ms.count()) + " cold submits, POST -> summary)");
    say("  trial_ms       p50 " + fixed(quantile(trial_ms, 0.5), 4) + "  p90 " +
        fixed(quantile(trial_ms, 0.9), 4) + "  (" + std::to_string(trial_ms.size()) +
        " daemon trials" +
        (tail_reportable(trial_ms.size(), 90) ? "" : "; p90 has < 10 samples beyond it") + ")");
    say("  failed_frac    " +
        fixed(static_cast<double>(out.failed) /
                  static_cast<double>(std::max<std::uint64_t>(out.attempted, 1)),
              6));
    out.add("setup_s", quantile(setups, 0.5), "s");
    out.add("trials_per_s", static_cast<double>(trial_ms.size()) / campaign_s, "1/s");
    out.add("trial_ms_p50", quantile(trial_ms, 0.5), "ms");
    out.add("trial_ms_p90", quantile(trial_ms, 0.9), "ms");
    out.add("peak_rss_mb", peak_mb, "MB");
    out.add("req_per_s", rate, "1/s");
    out.add("req_ms_p50", p50, "ms");
    out.add("req_ms_p90", p90, "ms");
    out.add("miss_ms_p50", total.miss_ms.quantile(0.5), "ms");
    return out;
  }

  const std::vector<trace::Span> spans = trace::drain();
  write_trace(options, spans);
  LayerReport report;
  report.window = derive_layers(spans, start_ns, end_ns);
  report.reference = derive_layers(spans, reference_from, reference_to);
  report.artifacts = derive_layers(spans, artifacts_from, INT64_MAX);
  report.counters = &reference;
  report.pool_wall_s = total_ms(report.window, "campaign") / 1e3;
  report.threads = 1;  // One engine thread per daemon job.
  // Whole slice pairs only: even = untraced, odd = traced.
  double plain = 0, traced = 0;
  std::uint64_t pairs = 0;
  for (std::size_t s = 1; s + 1 < slices.size(); s += 2) {
    plain += static_cast<double>(slices[s - 1]);
    traced += static_cast<double>(slices[s]);
    ++pairs;
  }
  report.overhead = traced > 0 ? plain / traced - 1.0 : 0.0;
  report.overhead_samples = pairs;
  report.hit_ratio =
      hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0;
  report.http_errors = http_errors;
  emit_layers(out, options.workload, report);
  const auto p50 = [&](const char* name) {
    const auto found = report.window.other_ms.find(name);
    return found == report.window.other_ms.end() ? 0.0 : quantile(found->second, 0.5);
  };
  say("  serve.post_ms_p50                 " + fixed(p50("http.post"), 4) + " ms");
  say("  serve.summary_get_ms_p50          " + fixed(p50("http.summary"), 4) + " ms");
  say("  serve.report_get_ms_p50           " + fixed(p50("http.report"), 4) + " ms");
  say("  serve.job_ms                      " + fixed(mean_ms(report.window, "campaign"), 4) +
      " ms  (campaign::run inside a daemon job)");
  return out;
}

}  // namespace perfbench
