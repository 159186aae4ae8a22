#include "serve/http.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <string>

#include <sys/socket.h>
#include <unistd.h>

namespace netcons::serve {
namespace {

RequestParser::State feed(RequestParser& parser, const std::string& bytes) {
  return parser.feed(bytes.data(), bytes.size());
}

TEST(RequestParser, ParsesRequestLineHeadersAndBody) {
  RequestParser parser;
  EXPECT_EQ(feed(parser,
                 "POST /v1/campaigns?dry=1 HTTP/1.1\r\n"
                 "Host: localhost\r\n"
                 "Content-Type: application/json\r\n"
                 "Content-Length: 7\r\n"
                 "\r\n"
                 "{\"a\":1}"),
            RequestParser::State::kReady);
  const HttpRequest request = parser.take();
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.target, "/v1/campaigns?dry=1");
  EXPECT_EQ(request.path, "/v1/campaigns");
  EXPECT_EQ(request.query, "dry=1");
  EXPECT_EQ(request.headers.at("host"), "localhost");  // Names lower-cased.
  EXPECT_EQ(request.headers.at("content-type"), "application/json");
  EXPECT_EQ(request.body, "{\"a\":1}");
}

TEST(RequestParser, AssemblesAcrossArbitrarySplitsAndPipelines) {
  const std::string two_requests =
      "GET /v1/metrics HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /v1/campaigns/abc HTTP/1.1\r\nHost: x\r\n\r\n";
  // One byte at a time: the parser must come up kReady exactly twice.
  RequestParser parser;
  int ready = 0;
  for (const char byte : two_requests) {
    if (parser.feed(&byte, 1) == RequestParser::State::kReady) {
      const HttpRequest request = parser.take();
      EXPECT_EQ(request.method, "GET");
      EXPECT_EQ(request.path, ready == 0 ? "/v1/metrics" : "/v1/campaigns/abc");
      ++ready;
    }
  }
  EXPECT_EQ(ready, 2);

  // Both at once: take() must immediately re-advance onto the second.
  RequestParser pipelined;
  ASSERT_EQ(feed(pipelined, two_requests), RequestParser::State::kReady);
  EXPECT_EQ(pipelined.take().path, "/v1/metrics");
  ASSERT_EQ(pipelined.state(), RequestParser::State::kReady);
  EXPECT_EQ(pipelined.take().path, "/v1/campaigns/abc");
}

TEST(RequestParser, RejectsMalformedAndOversizedRequests) {
  RequestParser bad_line;
  EXPECT_EQ(feed(bad_line, "nonsense\r\n\r\n"), RequestParser::State::kError);
  EXPECT_FALSE(bad_line.error().empty());

  RequestParser old_version;
  EXPECT_EQ(feed(old_version, "GET / HTTP/1.0\r\n\r\n"), RequestParser::State::kError);

  RequestParser chunked;
  EXPECT_EQ(feed(chunked,
                 "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            RequestParser::State::kError);

  RequestParser bad_length;
  EXPECT_EQ(feed(bad_length, "POST / HTTP/1.1\r\nContent-Length: 12x\r\n\r\n"),
            RequestParser::State::kError);

  RequestParser::Limits limits;
  limits.max_body = 8;
  RequestParser big_body(limits);
  EXPECT_EQ(feed(big_body, "POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n"),
            RequestParser::State::kError);

  limits = RequestParser::Limits{};
  limits.max_head = 32;
  RequestParser big_head(limits);
  EXPECT_EQ(feed(big_head, "GET /very-long-target-exceeding-the-head-limit HTTP/1.1\r\n"),
            RequestParser::State::kError);
}

TEST(RequestParser, ParsesResponsesForTheClient) {
  RequestParser parser({}, RequestParser::Kind::kResponse);
  EXPECT_EQ(feed(parser,
                 "HTTP/1.1 409 Conflict\r\nContent-Type: application/json\r\n"
                 "Content-Length: 2\r\n\r\n{}"),
            RequestParser::State::kReady);
  const HttpRequest response = parser.take();
  EXPECT_EQ(response.status, 409);
  EXPECT_EQ(response.headers.at("content-type"), "application/json");
  EXPECT_EQ(response.body, "{}");

  for (const std::string bad : {"HTTP/1.0 200 OK\r\n\r\n", "HTTP/1.1 2x0 OK\r\n\r\n",
                                "HTTP/1.1 2000\r\n\r\n", "GET / HTTP/1.1\r\n\r\n"}) {
    RequestParser malformed({}, RequestParser::Kind::kResponse);
    EXPECT_EQ(feed(malformed, bad), RequestParser::State::kError) << bad;
  }
}

TEST(HttpServer, ServesHandlerResponsesOverLoopback) {
  HttpServer::Options options;
  options.threads = 2;
  HttpServer server(options, [](const HttpRequest& request) {
    HttpResponse response;
    if (request.path == "/echo") {
      response.body = request.method + " " + request.body;
    } else if (request.path == "/boom") {
      throw std::runtime_error("handler exploded");
    } else {
      response.status = 404;
      response.body = "{\"missing\": true}\n";
    }
    return response;
  });
  server.start();
  ASSERT_GT(server.port(), 0);

  const FetchResult echoed =
      http_fetch("127.0.0.1", server.port(), "POST", "/echo", "payload");
  EXPECT_EQ(echoed.status, 200);
  EXPECT_EQ(echoed.body, "POST payload");
  EXPECT_EQ(echoed.headers.at("content-type"), "application/json");

  const FetchResult missing = http_fetch("127.0.0.1", server.port(), "GET", "/nope");
  EXPECT_EQ(missing.status, 404);
  EXPECT_EQ(missing.body, "{\"missing\": true}\n");

  // A throwing handler becomes a 500 envelope, not a dead connection.
  const FetchResult crashed = http_fetch("127.0.0.1", server.port(), "GET", "/boom");
  EXPECT_EQ(crashed.status, 500);
  EXPECT_NE(crashed.body.find("handler exploded"), std::string::npos);
  EXPECT_NE(crashed.body.find("\"schema\": \"netcons-serve-v2\""), std::string::npos);

  server.stop();
}

TEST(HttpServer, StreamsFileBodiesAndKeepsConnectionsAlive) {
  const std::filesystem::path artifact =
      std::filesystem::temp_directory_path() /
      ("netcons_test_http_" + std::to_string(static_cast<long>(::getpid())) + ".txt");
  // Larger than one 64 KiB stream chunk so the loop takes several laps.
  std::string contents;
  while (contents.size() < 200u * 1024u) contents += "0123456789abcdef";
  {
    std::ofstream out(artifact, std::ios::binary);
    out << contents;
  }

  HttpServer::Options options;
  HttpServer server(options, [&](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "text/plain";
    response.file_path = artifact.string();
    return response;
  });
  server.start();

  const FetchResult fetched = http_fetch("127.0.0.1", server.port(), "GET", "/file");
  EXPECT_EQ(fetched.status, 200);
  EXPECT_EQ(fetched.body, contents);
  EXPECT_EQ(fetched.headers.at("content-length"), std::to_string(contents.size()));

  // Keep-alive: two requests over one connection, by hand.
  Socket socket = connect_to("127.0.0.1", server.port(), 10.0);
  const std::string request = "GET /file HTTP/1.1\r\nHost: x\r\n\r\n";
  auto fetch_once = [&]() {
    ASSERT_GT(::send(socket.fd(), request.data(), request.size(), 0), 0);
    std::string raw;
    char buffer[16384];
    const std::string want_length = "Content-Length: " + std::to_string(contents.size());
    while (raw.find("\r\n\r\n") == std::string::npos ||
           raw.size() < raw.find("\r\n\r\n") + 4 + contents.size()) {
      const ssize_t n = ::recv(socket.fd(), buffer, sizeof buffer, 0);
      ASSERT_GT(n, 0);
      raw.append(buffer, static_cast<std::size_t>(n));
    }
    EXPECT_EQ(raw.rfind("HTTP/1.1 200 OK", 0), 0u);
    EXPECT_NE(raw.find("Connection: keep-alive"), std::string::npos);
    EXPECT_NE(raw.find(want_length), std::string::npos);
    EXPECT_EQ(raw.substr(raw.find("\r\n\r\n") + 4), contents);
  };
  fetch_once();
  fetch_once();
  socket.close();

  server.stop();
  std::error_code ec;
  std::filesystem::remove(artifact, ec);
}

TEST(HttpServer, AnswersMalformedRequestsWith400) {
  HttpServer::Options options;
  HttpServer server(options, [](const HttpRequest&) { return HttpResponse{}; });
  server.start();

  Socket socket = connect_to("127.0.0.1", server.port(), 10.0);
  const std::string garbage = "GET / SPDY/9\r\n\r\n";
  ASSERT_GT(::send(socket.fd(), garbage.data(), garbage.size(), 0), 0);
  std::string raw;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(socket.fd(), buffer, sizeof buffer, 0);
    if (n <= 0) break;  // Server closes after the 400.
    raw.append(buffer, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(raw.rfind("HTTP/1.1 400 Bad Request", 0), 0u);
  EXPECT_NE(raw.find("Connection: close"), std::string::npos);
  EXPECT_NE(raw.find("{\"schema\": \"netcons-serve-v2\", \"error\": {\"status\": 400"),
            std::string::npos);
  socket.close();
  server.stop();
}

TEST(StatusReason, CoversTheApiStatusCodes) {
  EXPECT_EQ(status_reason(200), "OK");
  EXPECT_EQ(status_reason(202), "Accepted");
  EXPECT_EQ(status_reason(400), "Bad Request");
  EXPECT_EQ(status_reason(404), "Not Found");
  EXPECT_EQ(status_reason(405), "Method Not Allowed");
  EXPECT_EQ(status_reason(409), "Conflict");
  EXPECT_EQ(status_reason(500), "Internal Server Error");
  EXPECT_EQ(status_reason(599), "Status");
}

}  // namespace
}  // namespace netcons::serve
