#include "fabric/worker.hpp"

#include "campaign/json.hpp"
#include "campaign/scheduler.hpp"
#include "campaign/trial_record.hpp"
#include "serve/http.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <stop_token>
#include <thread>

namespace netcons::fabric {

namespace {

namespace json = campaign::json;

std::string worker_record_path(const std::string& dir, int worker) {
  char name[64];
  for (int generation = 0;; ++generation) {
    std::snprintf(name, sizeof name, "fabric-w%04d-g%04d.jsonl", worker, generation);
    const std::filesystem::path path = std::filesystem::path(dir) / name;
    if (!std::filesystem::exists(path)) return path.string();
  }
}

/// POST one worker call and return the reply object; a non-200 answer
/// throws with the daemon's error message.
json::Value call(const WorkerOptions& options, const std::string& target,
                 const std::string& body) {
  const serve::FetchResult reply = serve::http_fetch(
      options.host, options.port, "POST", target, body, options.io_timeout_seconds, options.token);
  if (reply.status != 200) {
    std::string reason = reply.body;
    try {
      const json::Value envelope = json::parse(reply.body);
      reason = json::field(json::field(envelope.as_object(), "error").as_object(), "message")
                   .as_string();
    } catch (const std::exception&) {
      // Not an envelope: report the raw body.
    }
    throw std::runtime_error("fabric: " + target + " answered " + std::to_string(reply.status) +
                             ": " + reason);
  }
  return json::parse(reply.body);
}

int int_field(const json::Object& object, const std::string& key) {
  return static_cast<int>(json::field(object, key).as_u64());
}

}  // namespace

WorkerSummary run_worker(const campaign::CampaignSpec& spec, const WorkerOptions& options) {
  const campaign::CampaignHeader header = campaign::CampaignHeader::describe(spec);
  const std::string base = "/v1/campaigns/" + campaign::spec_fingerprint(header);

  WorkerSummary summary;
  const json::Value joined = call(options, base + "/join", campaign::header_line(header));
  const json::Object& join = joined.as_object();
  if (json::field(join, "action").as_string() == "drain") {
    summary.drained = true;  // The campaign was already complete.
    return summary;
  }
  summary.worker = int_field(join, "worker");
  const std::string worker_body = "{\"worker\": " + std::to_string(summary.worker);
  const auto log = [&](const std::string& line) {
    if (!options.quiet) std::fprintf(stderr, "[worker %d] %s\n", summary.worker, line.c_str());
  };

  const std::string& records_dir = json::field(join, "records_dir").as_string();
  std::filesystem::create_directories(records_dir);
  campaign::TrialRecordSink sink(worker_record_path(records_dir, summary.worker), header);

  // A failed heartbeat is not fatal here: the next lease call meets a
  // vanished daemon itself.
  const std::chrono::duration<double> period(json::field(join, "heartbeat_s").as_double());
  std::jthread ticker([&](std::stop_token stop) {
    std::mutex mutex;
    std::condition_variable_any wake;
    std::unique_lock lock(mutex);
    while (!wake.wait_for(lock, stop, period, [&] { return stop.stop_requested(); })) {
      try {
        (void)call(options, base + "/heartbeat", worker_body + "}");
      } catch (const std::exception&) {
      }
    }
  });

  std::optional<std::uint64_t> done;
  for (;;) {
    const json::Value reply = call(
        options, base + "/lease",
        worker_body + (done ? ", \"done\": " + std::to_string(*done) : std::string()) + "}");
    const json::Object& answer = reply.as_object();
    const std::string& action = json::field(answer, "action").as_string();
    done.reset();
    if (action == "grant") {
      const std::size_t point = json::field(answer, "point").as_u64();
      const int begin = int_field(answer, "begin");
      const int end = int_field(answer, "end");
      campaign::RunOptions run_options;
      run_options.threads = options.threads;
      run_options.select = [point, begin, end](std::size_t p, int t) {
        return p == point && t >= begin && t < end;
      };
      run_options.on_trial = [&sink](std::size_t p, int t, std::uint64_t seed,
                                     const campaign::TrialOutcome& outcome) {
        sink.write(campaign::TrialRecord{p, t, seed, outcome});
      };
      const campaign::CampaignResult result = campaign::run(spec, run_options);
      summary.executed_trials += result.executed_trials;
      ++summary.leases;
      done = json::field(answer, "lease").as_u64();
      log("lease " + std::to_string(*done) + ": point " + std::to_string(point) + " trials [" +
          std::to_string(begin) + ", " + std::to_string(end) + ")");
    } else if (action == "wait") {
      std::this_thread::sleep_for(std::chrono::milliseconds(int_field(answer, "retry_ms")));
    } else if (action == "drain") {
      summary.drained = true;
      log("drained after " + std::to_string(summary.leases) + " leases, " +
          std::to_string(summary.executed_trials) + " trials");
      return summary;
    } else {
      throw std::runtime_error("fabric: unexpected lease answer '" + action + "'");
    }
  }
}

}  // namespace netcons::fabric
