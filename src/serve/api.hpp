// The netcons-serve-v2 HTTP API surface: request routing, the JSON spec
// body -> CampaignSpec translation, status/error envelopes, artifact
// streaming, and the fabric workers' join/lease/heartbeat calls —
// everything between the HTTP server and the campaign Scheduler. One
// implementation, three drivers: tools/netcons_serve.cpp (the daemon),
// bench_serve_throughput (in-process load generator), and the unit tests.
//
// Wire spec: docs/serving-api.md. Every response body carries
// "schema": "netcons-serve-v2" (artifact downloads carry their own
// schemas: netcons-campaign-v3, netcons-trials-v2, netcons-report-v1,
// netcons-metrics-v1).
#pragma once

#include "campaign/scheduler.hpp"
#include "serve/http.hpp"

#include <string>

namespace netcons::telemetry {
class Registry;
}  // namespace netcons::telemetry

namespace netcons::serve {

class Api {
 public:
  /// Both references are borrowed and must outlive the Api (the daemon
  /// owns all three with the same lifetime). A non-empty `token` requires
  /// every request to carry "Authorization: Bearer <token>"; anything else
  /// is answered 401 before routing (empty: no authentication, the
  /// historical loopback trust model).
  Api(campaign::Scheduler& scheduler, telemetry::Registry& registry, std::string token = {});

  /// Route one request. Thread-safe (called from HTTP worker threads);
  /// never throws — every failure becomes a netcons-serve-v2 error
  /// envelope. Publishes serve.requests / serve.errors counters.
  [[nodiscard]] HttpResponse handle(const HttpRequest& request);

 private:
  [[nodiscard]] HttpResponse submit(const HttpRequest& request);
  [[nodiscard]] HttpResponse status(const std::string& id);
  [[nodiscard]] HttpResponse artifact(const std::string& id, const std::string& name);
  [[nodiscard]] HttpResponse fabric(const std::string& id, const std::string& call,
                                    const std::string& body);
  [[nodiscard]] HttpResponse metrics();

  [[nodiscard]] bool authorized(const HttpRequest& request) const;

  campaign::Scheduler& scheduler_;
  telemetry::Registry& registry_;
  std::string token_;
};

/// The netcons-serve-v2 status document for one job poll.
[[nodiscard]] std::string status_json(const campaign::JobStatus& status);

}  // namespace netcons::serve
