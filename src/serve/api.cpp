#include "serve/api.hpp"

#include "campaign/json.hpp"
#include "campaign/spec_cli.hpp"
#include "campaign/trial_record.hpp"
#include "telemetry/metrics.hpp"

#include <climits>
#include <optional>
#include <utility>
#include <vector>

namespace netcons::serve {

namespace {

namespace json = campaign::json;

/// What a POST /v1/campaigns body declares: the raw spec vocabulary (the
/// same names and defaults as the CLI spec flags) plus the dispatch mode.
struct Submission {
  campaign::SpecCli cli;
  campaign::JobDispatch dispatch = campaign::JobDispatch::kLocal;
};

std::vector<std::string> string_list(const json::Value& value) {
  std::vector<std::string> out;
  for (const json::Value& item : value.as_array()) out.push_back(item.as_string());
  return out;
}

int small_int(const json::Value& value, const std::string& what) {
  const std::uint64_t raw = value.as_u64();
  if (raw > static_cast<std::uint64_t>(INT_MAX)) {
    throw std::runtime_error(what + " out of range");
  }
  return static_cast<int>(raw);
}

/// Strict parse of the request document: unknown fields are errors (the
/// schema is drift-gated against docs/serving-api.md, so typos must not
/// silently fall back to defaults).
Submission parse_submission(const std::string& body) {
  Submission submission;
  const json::Value document = json::parse(body);
  for (const auto& [key, value] : document.as_object()) {
    if (key == "protocols") {
      submission.cli.protocols = string_list(value);
    } else if (key == "processes") {
      submission.cli.processes = string_list(value);
    } else if (key == "schedulers") {
      submission.cli.schedulers = string_list(value);
    } else if (key == "faults") {
      submission.cli.faults = string_list(value);
    } else if (key == "engines") {
      submission.cli.engines = string_list(value);
    } else if (key == "ns") {
      for (const json::Value& item : value.as_array()) {
        submission.cli.ns.push_back(small_int(item, "ns entry"));
      }
    } else if (key == "trials") {
      submission.cli.trials = small_int(value, "trials");
    } else if (key == "seed") {
      submission.cli.seed = value.as_u64();
    } else if (key == "params") {
      for (const auto& [name, param] : value.as_object()) {
        if (name == "k") {
          submission.cli.params.k = small_int(param, "params.k");
        } else if (name == "c") {
          submission.cli.params.c = small_int(param, "params.c");
        } else if (name == "d") {
          submission.cli.params.d = small_int(param, "params.d");
        } else {
          throw std::runtime_error("unknown params field '" + name + "' (k, c, d)");
        }
      }
    } else if (key == "dispatch") {
      const std::string& mode = value.as_string();
      if (mode == "local") {
        submission.dispatch = campaign::JobDispatch::kLocal;
      } else if (mode == "fabric") {
        submission.dispatch = campaign::JobDispatch::kFabric;
      } else {
        throw std::runtime_error("unknown dispatch '" + mode + "' (local, fabric)");
      }
    } else {
      throw std::runtime_error("unknown field '" + key + "'");
    }
  }
  return submission;
}

constexpr std::string_view kCampaignsPrefix = "/v1/campaigns";

HttpResponse fabric_response(const campaign::FabricAnswer& answer) {
  using Kind = campaign::FabricAnswer::Kind;
  if (answer.kind == Kind::kUnknownJob) return error_response(404, answer.message);
  if (answer.kind == Kind::kRefused) return error_response(409, answer.message);
  std::string body = "{\"schema\": \"netcons-serve-v2\", \"action\": ";
  switch (answer.kind) {
    case Kind::kJoined:
      body += "\"joined\", \"worker\": " + std::to_string(answer.worker) + ", \"heartbeat_s\": ";
      json::append_double(body, answer.heartbeat_s);
      body += ", \"deadline_s\": ";
      json::append_double(body, answer.deadline_s);
      body += ", \"records_dir\": ";
      json::append_escaped(body, answer.records_dir);
      break;
    case Kind::kGrant:
      body += "\"grant\", \"lease\": " + std::to_string(answer.lease.id) +
              ", \"point\": " + std::to_string(answer.lease.range.point) +
              ", \"begin\": " + std::to_string(answer.lease.range.begin) +
              ", \"end\": " + std::to_string(answer.lease.range.end);
      break;
    case Kind::kWait: body += "\"wait\", \"retry_ms\": 250"; break;
    case Kind::kDrain: body += "\"drain\""; break;
    default: body += "\"alive\""; break;
  }
  body += "}\n";
  HttpResponse response;
  response.body = std::move(body);
  return response;
}

}  // namespace

std::string status_json(const campaign::JobStatus& status) {
  std::string body = "{\"schema\": \"netcons-serve-v2\", \"id\": ";
  json::append_escaped(body, status.id);
  body += ", \"state\": ";
  json::append_escaped(body, std::string(campaign::job_state_name(status.state)));
  body += ", \"cached\": ";
  body += status.cached ? "true" : "false";
  body += ", \"trials_total\": " + std::to_string(status.trials_total);
  body += ", \"trials_done\": " + std::to_string(status.trials_done);
  body += ", \"trials_per_sec\": ";
  json::append_double(body, status.trials_per_sec);
  body += ", \"eta_s\": ";
  json::append_double(body, status.eta_s);
  body += ", \"wall_seconds\": ";
  json::append_double(body, status.wall_seconds);
  body += ", \"records_dir\": ";
  json::append_escaped(body, status.records_dir);
  body += ", \"error\": ";
  json::append_escaped(body, status.error);
  body += "}\n";
  return body;
}

Api::Api(campaign::Scheduler& scheduler, telemetry::Registry& registry, std::string token)
    : scheduler_(scheduler), registry_(registry), token_(std::move(token)) {}

bool Api::authorized(const HttpRequest& request) const {
  if (token_.empty()) return true;
  const auto header = request.headers.find("authorization");
  return header != request.headers.end() && header->second == "Bearer " + token_;
}

HttpResponse Api::handle(const HttpRequest& request) {
  registry_.add("serve.requests");
  HttpResponse response;
  try {
    if (!authorized(request)) {
      // Checked before routing, so an unauthenticated caller cannot even
      // probe which endpoints exist. The reason never echoes the token.
      response = error_response(401,
                                "missing or invalid Authorization header "
                                "(this daemon requires \"Authorization: Bearer <token>\")");
    } else if (request.path == "/v1/metrics") {
      response = request.method == "GET" ? metrics()
                                         : error_response(405, "use GET on /v1/metrics");
    } else if (request.path == kCampaignsPrefix) {
      response = request.method == "POST"
                     ? submit(request)
                     : error_response(405, "use POST /v1/campaigns to submit a spec");
    } else if (request.path.rfind(std::string(kCampaignsPrefix) + "/", 0) == 0) {
      const std::string rest = request.path.substr(kCampaignsPrefix.size() + 1);
      const std::size_t slash = rest.find('/');
      const std::string id = rest.substr(0, slash);
      const std::string name = slash == std::string::npos ? std::string() : rest.substr(slash + 1);
      const bool worker_call = name == "join" || name == "lease" || name == "heartbeat";
      if (id.empty()) {
        response = error_response(404, "missing campaign id");
      } else if (request.method != (worker_call ? "POST" : "GET")) {
        response = error_response(405, worker_call ? "use POST for fabric worker calls"
                                                   : "campaign resources are read-only (GET)");
      } else if (worker_call) {
        response = fabric(id, name, request.body);
      } else if (name.empty()) {
        response = status(id);
      } else {
        response = artifact(id, name);
      }
    } else {
      response = error_response(404, "no such endpoint (see docs/serving-api.md)");
    }
  } catch (const std::exception& error) {
    response = error_response(500, error.what());
  }
  if (response.status >= 400) registry_.add("serve.errors");
  return response;
}

HttpResponse Api::submit(const HttpRequest& request) {
  Submission submission;
  try {
    submission = parse_submission(request.body);
  } catch (const std::exception& error) {
    return error_response(400, std::string("bad request document: ") + error.what());
  }
  std::string spec_error;
  std::optional<campaign::CampaignSpec> spec;
  try {
    spec = campaign::build_spec(submission.cli, &spec_error);
  } catch (const std::exception& error) {
    return error_response(400, std::string("bad campaign spec: ") + error.what());
  }
  if (!spec) return error_response(400, "bad campaign spec: " + spec_error);

  const campaign::Scheduler::Submitted submitted =
      scheduler_.submit(*spec, submission.dispatch);
  const std::optional<campaign::JobStatus> polled = scheduler_.poll(submitted.id);
  campaign::JobStatus job_status;
  if (polled) job_status = *polled;

  std::string body = "{\"schema\": \"netcons-serve-v2\", \"id\": ";
  json::append_escaped(body, submitted.id);
  body += ", \"state\": ";
  json::append_escaped(body, std::string(campaign::job_state_name(job_status.state)));
  body += ", \"cached\": ";
  body += submitted.cached ? "true" : "false";
  body += ", \"coalesced\": ";
  body += submitted.coalesced ? "true" : "false";
  body += ", \"trials_total\": " + std::to_string(job_status.trials_total);
  body += "}\n";

  HttpResponse response;
  // 200: answerable right now (cache hit). 202: accepted, poll for it.
  response.status = submitted.cached ? 200 : 202;
  response.body = std::move(body);
  return response;
}

HttpResponse Api::fabric(const std::string& id, const std::string& call,
                         const std::string& body) {
  campaign::CampaignHeader theirs;
  int worker = 0;
  std::optional<std::uint64_t> done;
  try {
    if (call == "join") {
      // The body is the worker's netcons-trials-v2 header line, verbatim.
      theirs = campaign::parse_header_line(body);
    } else {
      // {"worker": N}, optionally with "done": L, the lease it just finished.
      const json::Value document = json::parse(body);
      const json::Object& fields = document.as_object();
      worker = small_int(json::field(fields, "worker"), "worker");
      if (const auto it = fields.find("done"); it != fields.end()) done = it->second.as_u64();
    }
  } catch (const std::exception& error) {
    return error_response(400, "bad " + call + " document: " + error.what());
  }
  return fabric_response(call == "join"
                             ? scheduler_.fabric_join(id, theirs)
                             : scheduler_.fabric_lease(id, worker, done, call == "heartbeat"));
}

HttpResponse Api::status(const std::string& id) {
  const std::optional<campaign::JobStatus> polled = scheduler_.poll(id);
  if (!polled) return error_response(404, "unknown campaign id '" + id + "'");
  HttpResponse response;
  response.body = status_json(*polled);
  return response;
}

HttpResponse Api::artifact(const std::string& id, const std::string& name) {
  std::string file;
  std::string content_type = "application/json";
  if (name == "summary") {
    file = "summary.json";
  } else if (name == "summary.csv") {
    file = "summary.csv";
    content_type = "text/csv";
  } else if (name == "records") {
    file = "records.jsonl";
    content_type = "application/x-ndjson";
  } else if (name == "report") {
    file = "report.json";
  } else {
    return error_response(404, "unknown artifact '" + name +
                                   "' (summary, summary.csv, records, report)");
  }
  const std::string path = scheduler_.artifact_path(id, file);
  if (path.empty()) {
    const std::optional<campaign::JobStatus> polled = scheduler_.poll(id);
    if (!polled) return error_response(404, "unknown campaign id '" + id + "'");
    if (polled->state == campaign::JobState::kFailed) {
      return error_response(409, "campaign " + id + " failed: " + polled->error);
    }
    return error_response(409, "campaign " + id + " is " +
                                   std::string(campaign::job_state_name(polled->state)) +
                                   "; artifacts are available once it is done");
  }
  HttpResponse response;
  response.content_type = std::move(content_type);
  response.file_path = path;
  return response;
}

HttpResponse Api::metrics() {
  HttpResponse response;
  response.body = registry_.snapshot_json();
  return response;
}

}  // namespace netcons::serve
