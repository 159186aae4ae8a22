// Deterministic mutation fuzzing of the one network parser, RequestParser
// (both the server's request mode and http_fetch's response mode), and of
// the fabric worker calls' bodies through Api::handle. Mutations draw from
// a fixed SplitMix64 stream, so every run replays the same ~10^4 inputs
// and a failure reproduces from its iteration number alone.
//
// Properties: nothing crashes; after every feed the parser is in exactly
// one of {incomplete, ready, error}, and an error is sticky; every 4xx the
// Api answers carries a netcons-serve-* error envelope, and none is a 5xx.
#include "campaign/json.hpp"
#include "campaign/scheduler.hpp"
#include "campaign/spec_cli.hpp"
#include "campaign/trial_record.hpp"
#include "serve/api.hpp"
#include "serve/http.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

namespace netcons {
namespace {

namespace json = campaign::json;
using serve::RequestParser;

/// Byte-level mutator over one SplitMix64 stream.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : state_(seed) {}

  std::uint64_t below(std::uint64_t bound) { return bound == 0 ? 0 : splitmix64(state_) % bound; }

  /// One to four stacked mutations of `input` (`corpus` feeds splices).
  std::string mutate(std::string input, const std::vector<std::string>& corpus) {
    static const std::vector<std::string> tokens = {
        "\r\n", "\r\n\r\n", ":", " ", "\t", "{", "}", "[", "]", "\"", ",", "\\u0000", "-1",
        "18446744073709551616", "Content-Length: 999999999999\r\n", "Content-Length: 5\r\n",
        "Transfer-Encoding: chunked\r\n", "HTTP/1.1", "HTTP/1.0", "\"worker\": ", "\"done\": ",
        "null", "1e308", "0"};
    const int rounds = 1 + static_cast<int>(below(4));
    for (int round = 0; round < rounds; ++round) {
      const std::size_t at = below(input.size() + 1);
      switch (below(7)) {
        case 0:  // Flip one bit.
          if (!input.empty()) input[at % input.size()] ^= static_cast<char>(1u << below(8));
          break;
        case 1:  // Insert a random byte.
          input.insert(at, 1, static_cast<char>(below(256)));
          break;
        case 2:  // Delete a range.
          input.erase(at, below(16) + 1);
          break;
        case 3:  // Duplicate a range.
          input.insert(at, input.substr(at, below(32) + 1));
          break;
        case 4:  // Insert a token that matters to HTTP or JSON.
          input.insert(at, tokens[below(tokens.size())]);
          break;
        case 5: {  // Splice in part of another corpus entry.
          const std::string& other = corpus[below(corpus.size())];
          const std::size_t from = below(other.size() + 1);
          input.insert(at, other.substr(from, below(64) + 1));
          break;
        }
        default:  // Truncate.
          input.resize(at);
          break;
      }
    }
    return input;
  }

 private:
  std::uint64_t state_;
};

campaign::CampaignSpec tiny_spec() {
  campaign::SpecCli cli;
  cli.protocols = {"cycle-cover"};
  cli.ns = {8};
  cli.trials = 4;
  return *campaign::build_spec(cli);
}

std::string header_of(const campaign::CampaignSpec& spec) {
  return campaign::header_line(campaign::CampaignHeader::describe(spec));
}

/// Requests the HTTP, serve and fabric tests build, as raw bytes.
std::vector<std::string> request_corpus() {
  const std::string header = header_of(tiny_spec());
  return {
      "POST /v1/campaigns?dry=1 HTTP/1.1\r\nHost: localhost\r\n"
      "Content-Type: application/json\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
      "GET /v1/metrics HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /v1/campaigns/abc HTTP/1.1\r\nHost: x\r\n\r\n",
      "GET /file HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
      "GET / SPDY/9\r\n\r\n",
      "POST /v1/campaigns/0123456789abcdef/join HTTP/1.1\r\nHost: x\r\n"
      "Authorization: Bearer s3cret\r\nContent-Length: " +
          std::to_string(header.size()) + "\r\n\r\n" + header,
      "POST /v1/campaigns/0123456789abcdef/lease HTTP/1.1\r\nHost: x\r\n"
      "Content-Length: 25\r\n\r\n{\"worker\": 1, \"done\": 7}",
      "POST /v1/campaigns/0123456789abcdef/heartbeat HTTP/1.1\r\nContent-Length: 13\r\n\r\n"
      "{\"worker\": 1}",
  };
}

/// Responses http_fetch reads from the daemon.
std::vector<std::string> response_corpus() {
  return {
      "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 57\r\n"
      "Connection: close\r\n\r\n"
      "{\"schema\": \"netcons-serve-v2\", \"action\": \"wait\", \"a\": 1}",
      "HTTP/1.1 409 Conflict\r\nContent-Length: 2\r\n\r\n{}",
      "HTTP/1.1 204 No Content\r\n\r\n",
  };
}

RequestParser::State feed_in_chunks(RequestParser& parser, const std::string& bytes,
                                    Mutator& random) {
  std::size_t offset = 0;
  int ready = 0;
  while (offset < bytes.size()) {
    const std::size_t chunk = std::min(bytes.size() - offset, 1 + random.below(64));
    RequestParser::State state = parser.feed(bytes.data() + offset, chunk);
    offset += chunk;
    for (;;) {
      EXPECT_TRUE(state == RequestParser::State::kIncomplete ||
                  state == RequestParser::State::kReady || state == RequestParser::State::kError);
      if (state != RequestParser::State::kReady || ++ready > 64) break;
      (void)parser.take();
      state = parser.state();
    }
    if (state == RequestParser::State::kError) {
      EXPECT_FALSE(parser.error().empty());
      EXPECT_EQ(parser.feed("x", 1), RequestParser::State::kError);  // Sticky.
      return state;
    }
  }
  return parser.state();
}

TEST(FuzzRequestParser, TenThousandMutationsKeepTheParserInALegalState) {
  const std::vector<std::string> requests = request_corpus();
  const std::vector<std::string> responses = response_corpus();
  Mutator random(0x6e6574636f6e73ULL);
  int errors = 0;
  for (int iteration = 0; iteration < 10000; ++iteration) {
    const bool response = iteration % 4 == 3;
    const std::vector<std::string>& corpus = response ? responses : requests;
    const std::string input = random.mutate(corpus[random.below(corpus.size())], corpus);
    RequestParser::Limits limits;
    limits.max_head = 256 + random.below(4096);
    limits.max_body = random.below(2048);
    RequestParser parser(limits, response ? RequestParser::Kind::kResponse
                                          : RequestParser::Kind::kRequest);
    SCOPED_TRACE("iteration " + std::to_string(iteration));
    if (feed_in_chunks(parser, input, random) == RequestParser::State::kError) ++errors;
  }
  // The mutations reach both outcomes, so the property is not vacuous.
  EXPECT_GT(errors, 1000);
  EXPECT_LT(errors, 9000);
}

TEST(FuzzApi, FabricCallBodiesAlwaysGetAnEnvelope) {
  const std::filesystem::path cache =
      std::filesystem::temp_directory_path() /
      ("netcons_test_fuzz_" + std::to_string(static_cast<long>(::getpid())));
  telemetry::Registry registry;
  {
    campaign::Scheduler::Options options;
    options.cache_dir = cache.string();
    options.threads = 1;
    options.fabric_lease_size = 1;
    options.registry = &registry;
    campaign::Scheduler scheduler(options);
    serve::Api api(scheduler, registry);
    const std::string id = scheduler.submit(tiny_spec(), campaign::JobDispatch::kFabric).id;

    const std::string header = header_of(tiny_spec());
    const std::vector<std::string> bodies = {
        header,
        "{\"worker\": 1}",
        "{\"worker\": 1, \"done\": 1}",
        "{\"worker\": 2, \"done\": 18446744073709551615}",
        "{\"worker\": 0}",
    };
    const std::vector<std::string> calls = {"join", "lease", "heartbeat"};
    Mutator random(0x66616272696373ULL);
    int answered_4xx = 0;
    for (int iteration = 0; iteration < 10000; ++iteration) {
      serve::HttpRequest request;
      request.method = "POST";
      request.path = "/v1/campaigns/" + id + "/" + calls[random.below(calls.size())];
      const std::string& seed = bodies[random.below(bodies.size())];
      request.body = random.below(8) == 0 ? seed : random.mutate(seed, bodies);
      SCOPED_TRACE("iteration " + std::to_string(iteration) + ": " + request.path + " " +
                   request.body);
      const serve::HttpResponse response = api.handle(request);
      EXPECT_LT(response.status, 500) << response.body;
      if (response.status >= 400) {
        ++answered_4xx;
        const json::Value envelope = json::parse(response.body);
        const json::Object& fields = envelope.as_object();
        EXPECT_EQ(json::field(fields, "schema").as_string().rfind("netcons-serve-", 0), 0u);
        const json::Object& error = json::field(fields, "error").as_object();
        EXPECT_EQ(json::field(error, "status").as_u64(), static_cast<std::uint64_t>(response.status));
      }
    }
    EXPECT_GT(answered_4xx, 1000);
  }
  std::error_code ec;
  std::filesystem::remove_all(cache, ec);
}

}  // namespace
}  // namespace netcons
