// The daemon's fabric path end to end, in process: Scheduler + Api +
// HttpServer on a loopback port, fabric::run_worker threads as workers,
// and raw HTTP calls for the workers that misbehave. The byte-identity
// contract under test: however leases move between workers, die with
// them, or resume from a spool, the served summary is the local one.
#include "campaign/json.hpp"
#include "campaign/scheduler.hpp"
#include "campaign/spec_cli.hpp"
#include "campaign/trial_record.hpp"
#include "fabric/worker.hpp"
#include "serve/api.hpp"
#include "serve/http.hpp"
#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

namespace netcons {
namespace {

namespace fs = std::filesystem;
namespace json = campaign::json;

constexpr const char* kSpecBody =
    R"({"protocols": ["cycle-cover", "global-star"], "ns": [16, 24], "trials": 40, "seed": 7)";

campaign::CampaignSpec make_spec(int trials = 40) {
  campaign::SpecCli cli;
  cli.protocols = {"cycle-cover", "global-star"};
  cli.ns = {16, 24};
  cli.trials = trials;
  cli.seed = 7;
  return *campaign::build_spec(cli);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A daemon over a scratch cache, torn down server first.
struct Daemon {
  fs::path cache;
  telemetry::Registry registry;
  std::unique_ptr<campaign::Scheduler> scheduler;
  std::unique_ptr<serve::Api> api;
  std::unique_ptr<serve::HttpServer> server;
  std::string token;

  explicit Daemon(std::string bearer = {}, double deadline = 1.0, double max_idle = 600.0)
      : token(std::move(bearer)) {
    static std::atomic<int> counter{0};
    cache = fs::temp_directory_path() / ("netcons_test_fabric_" + std::to_string(::getpid()) +
                                         "_" + std::to_string(counter++));
    campaign::Scheduler::Options options;
    options.cache_dir = cache.string();
    options.threads = 1;
    options.fabric_lease_size = 8;
    options.fabric_deadline_seconds = deadline;
    options.fabric_max_idle_seconds = max_idle;
    options.registry = &registry;
    scheduler = std::make_unique<campaign::Scheduler>(options);
    api = std::make_unique<serve::Api>(*scheduler, registry, token);
    server = std::make_unique<serve::HttpServer>(
        serve::HttpServer::Options{},
        [this](const serve::HttpRequest& request) { return api->handle(request); });
    server->start();
  }
  ~Daemon() {
    server.reset();
    api.reset();
    scheduler.reset();
    std::error_code ec;
    fs::remove_all(cache, ec);
  }

  serve::FetchResult post(const std::string& target, const std::string& body,
                          const std::string& bearer) const {
    return serve::http_fetch("127.0.0.1", server->port(), "POST", target, body, 30.0, bearer);
  }
  serve::FetchResult post(const std::string& target, const std::string& body) const {
    return post(target, body, token);
  }

  /// Submit the spec with "dispatch": "fabric"; returns the job id.
  std::string submit_fabric() const {
    const serve::FetchResult posted =
        post("/v1/campaigns", std::string(kSpecBody) + R"(, "dispatch": "fabric"})");
    EXPECT_EQ(posted.status, 202) << posted.body;
    return json::field(json::parse(posted.body).as_object(), "id").as_string();
  }

  fabric::WorkerOptions worker_options() const {
    fabric::WorkerOptions options;
    options.port = server->port();
    options.threads = 1;
    options.token = token;
    options.quiet = true;
    return options;
  }
};

json::Object object_of(const serve::FetchResult& result) {
  return json::parse(result.body).as_object();
}

/// The summary a local-dispatch job serves for the same spec.
std::string local_summary(const std::string& artifact) {
  Daemon local;
  const campaign::Scheduler::Submitted submitted = local.scheduler->submit(make_spec());
  EXPECT_EQ(local.scheduler->wait(submitted.id).state, campaign::JobState::kDone);
  return read_file(local.scheduler->artifact_path(submitted.id, artifact));
}

/// Join as a raw client; returns {worker id, records dir}.
std::pair<int, std::string> raw_join(const Daemon& daemon, const std::string& id) {
  const serve::FetchResult joined =
      daemon.post("/v1/campaigns/" + id + "/join",
                  campaign::header_line(campaign::CampaignHeader::describe(make_spec())));
  EXPECT_EQ(joined.status, 200) << joined.body;
  const json::Object reply = object_of(joined);
  return {static_cast<int>(json::field(reply, "worker").as_u64()),
          json::field(reply, "records_dir").as_string()};
}

/// The raw worker's next lease, asking again while the job is still
/// starting (a "wait" answer).
json::Object raw_lease(const Daemon& daemon, const std::string& id, int worker) {
  for (;;) {
    const serve::FetchResult leased = daemon.post(
        "/v1/campaigns/" + id + "/lease", R"({"worker": )" + std::to_string(worker) + "}");
    EXPECT_EQ(leased.status, 200) << leased.body;
    json::Object reply = object_of(leased);
    if (json::field(reply, "action").as_string() != "wait") return reply;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

TEST(FabricDispatch, TwoWorkersAndADeadOneServeTheLocalSummaryBytes) {
  const std::string want_json = local_summary("summary.json");
  const std::string want_csv = local_summary("summary.csv");

  Daemon daemon("s3cret");
  const std::string id = daemon.submit_fabric();

  // The dead worker joins and takes the first lease, then never reports
  // and never heartbeats: its lease requeues only once the deadline passes.
  const int dead = raw_join(daemon, id).first;
  const json::Object grant = raw_lease(daemon, id, dead);
  ASSERT_EQ(json::field(grant, "action").as_string(), "grant");

  const campaign::CampaignSpec spec = make_spec();
  std::vector<fabric::WorkerSummary> summaries(2);
  std::vector<std::thread> workers;
  for (fabric::WorkerSummary& summary : summaries) {
    workers.emplace_back([&] { summary = fabric::run_worker(spec, daemon.worker_options()); });
  }
  for (std::thread& worker : workers) worker.join();

  std::uint64_t executed = 0;
  for (const fabric::WorkerSummary& summary : summaries) {
    EXPECT_TRUE(summary.drained);
    executed += summary.executed_trials;
  }
  EXPECT_EQ(executed, 160u);  // The dead worker's lease ran elsewhere.

  const campaign::JobStatus status = daemon.scheduler->wait(id);
  ASSERT_EQ(status.state, campaign::JobState::kDone) << status.error;
  EXPECT_EQ(read_file(daemon.scheduler->artifact_path(id, "summary.json")), want_json);
  EXPECT_EQ(read_file(daemon.scheduler->artifact_path(id, "summary.csv")), want_csv);
  // The job's wall time spans the lease phase, which the dead worker's
  // lease stretched past its 1 s deadline — not just the final fold.
  EXPECT_GE(status.wall_seconds, 1.0);

  const serve::FetchResult metrics =
      serve::http_fetch("127.0.0.1", daemon.server->port(), "GET", "/v1/metrics", {}, 30.0,
                        daemon.token);
  ASSERT_EQ(metrics.status, 200);
  const json::Object gauges = json::field(object_of(metrics), "gauges").as_object();
  EXPECT_GE(json::field(gauges, "fabric.leases_requeued").as_double(), 1.0);
  EXPECT_GE(json::field(gauges, "fabric.workers_dead").as_double(), 1.0);

  // A worker arriving after the job completed drains at once.
  const fabric::WorkerSummary late = fabric::run_worker(spec, daemon.worker_options());
  EXPECT_TRUE(late.drained);
  EXPECT_EQ(late.leases, 0u);
}

TEST(FabricDispatch, AWorkerWithADifferentSpecIsRefusedNamingTheField) {
  Daemon daemon;
  const std::string id = daemon.submit_fabric();

  // Its own spec derives another job id; the daemon diffs it against the
  // fabric job it runs.
  try {
    (void)fabric::run_worker(make_spec(41), daemon.worker_options());
    FAIL() << "a mismatched worker joined";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("409"), std::string::npos) << error.what();
    EXPECT_NE(std::string(error.what()).find("trials"), std::string::npos) << error.what();
  }

  // The same diff guards the job's own id.
  const serve::FetchResult joined =
      daemon.post("/v1/campaigns/" + id + "/join",
                  campaign::header_line(campaign::CampaignHeader::describe(make_spec(41))));
  EXPECT_EQ(joined.status, 409);
  EXPECT_NE(joined.body.find("trials"), std::string::npos) << joined.body;
  EXPECT_NE(joined.body.find("netcons-serve-v2"), std::string::npos) << joined.body;

  // Lease calls from a worker that never joined are refused too.
  EXPECT_EQ(daemon.post("/v1/campaigns/" + id + "/lease", R"({"worker": 99})").status, 409);
  EXPECT_EQ(daemon.post("/v1/campaigns/0000000000000000/lease", R"({"worker": 1})").status, 404);
}

TEST(FabricDispatch, WorkerCallsNeedTheBearerToken) {
  Daemon daemon("s3cret");
  const std::string id = daemon.submit_fabric();
  const std::string header = campaign::header_line(campaign::CampaignHeader::describe(make_spec()));

  const serve::FetchResult anonymous = daemon.post("/v1/campaigns/" + id + "/join", header, "");
  EXPECT_EQ(anonymous.status, 401);
  EXPECT_NE(anonymous.body.find("netcons-serve-v2"), std::string::npos);
  EXPECT_EQ(daemon.post("/v1/campaigns/" + id + "/join", header, "wrong").status, 401);
  EXPECT_EQ(daemon.post("/v1/campaigns/" + id + "/join", header).status, 200);
}

TEST(FabricDispatch, AJobThatGaveUpResumesFromItsSpoolWhenResubmitted) {
  const std::string want_json = local_summary("summary.json");

  Daemon daemon({}, /*deadline=*/0.2, /*max_idle=*/0.4);
  const std::string id = daemon.submit_fabric();

  // One worker executes one lease into the spool, reports it, and leaves.
  const auto [worker, records_dir] = raw_join(daemon, id);
  const json::Object grant = raw_lease(daemon, id, worker);
  ASSERT_EQ(json::field(grant, "action").as_string(), "grant");
  const std::size_t point = json::field(grant, "point").as_u64();
  const int begin = static_cast<int>(json::field(grant, "begin").as_u64());
  const int end = static_cast<int>(json::field(grant, "end").as_u64());
  {
    const campaign::CampaignSpec spec = make_spec();
    campaign::TrialRecordSink sink((fs::path(records_dir) / "partial.jsonl").string(),
                                   campaign::CampaignHeader::describe(spec));
    campaign::RunOptions run_options;
    run_options.threads = 1;
    run_options.select = [&](std::size_t p, int t) { return p == point && t >= begin && t < end; };
    run_options.on_trial = [&](std::size_t p, int t, std::uint64_t seed,
                               const campaign::TrialOutcome& outcome) {
      sink.write(campaign::TrialRecord{p, t, seed, outcome});
    };
    (void)campaign::run(spec, run_options);
  }
  EXPECT_EQ(daemon.scheduler->poll(id)->trials_done, 0u);
  const serve::FetchResult reported = daemon.post(
      "/v1/campaigns/" + id + "/lease",
      R"({"worker": )" + std::to_string(worker) + R"(, "done": )" +
          std::to_string(json::field(grant, "lease").as_u64()) + "}");
  ASSERT_EQ(reported.status, 200) << reported.body;
  // Progress of a running fabric job is its committed slots.
  EXPECT_EQ(daemon.scheduler->poll(id)->trials_done, static_cast<std::uint64_t>(end - begin));

  // No live worker past the idle limit: the job fails, keeping its spool.
  EXPECT_EQ(daemon.scheduler->wait(id).state, campaign::JobState::kFailed);

  daemon.submit_fabric();
  const fabric::WorkerSummary summary = fabric::run_worker(make_spec(), daemon.worker_options());
  EXPECT_EQ(summary.executed_trials, 160u - static_cast<std::uint64_t>(end - begin));
  const campaign::JobStatus status = daemon.scheduler->wait(id);
  ASSERT_EQ(status.state, campaign::JobState::kDone) << status.error;
  EXPECT_EQ(read_file(daemon.scheduler->artifact_path(id, "summary.json")), want_json);
}

}  // namespace
}  // namespace netcons
