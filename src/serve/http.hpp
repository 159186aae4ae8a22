// A minimal embedded HTTP/1.1 server and client over POSIX sockets — no
// new dependencies, just enough of the protocol for the netcons_serve JSON
// API and its fabric workers: request-line + headers parsing,
// Content-Length bodies, keep-alive, and file-streamed responses for the
// large cached artifacts (records stream in fixed-size chunks, never
// materialized in memory). One parser (RequestParser) reads every byte
// that arrives on a socket, in both directions.
//
// Deliberately NOT implemented (requests using them get a 4xx/close):
// chunked transfer encoding, HTTP/1.0 keep-alive, and TLS. Authentication
// lives one layer up (serve/api.hpp checks the optional bearer token);
// bind to loopback or a trusted network only — see docs/serving-api.md.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace netcons::serve {

/// Move-only owner of a socket file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Blocking connect to the IPv4 `host:port`; throws std::runtime_error on
/// failure. `io_timeout_seconds` > 0 arms SO_RCVTIMEO/SO_SNDTIMEO so a
/// dead peer surfaces as an error instead of a hang.
[[nodiscard]] Socket connect_to(const std::string& host, int port,
                                double io_timeout_seconds = 0.0);

/// One parsed HTTP message: a request, or (RequestParser::Kind::kResponse)
/// a response, whose start line fills only `status`.
struct HttpRequest {
  int status = 0;      ///< Responses only: the status code.
  std::string method;  ///< Uppercase token as sent ("GET", "POST", ...).
  std::string target;  ///< The raw request-target ("/v1/campaigns?x=1").
  std::string path;    ///< Target up to the first '?'.
  std::string query;   ///< After the '?'; empty when absent.
  std::map<std::string, std::string> headers;  ///< Names lower-cased.
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Non-empty: stream this file as the body instead (Content-Length from
  /// the file size, 64 KiB chunks). `body` is ignored.
  std::string file_path;
};

[[nodiscard]] std::string_view status_reason(int status) noexcept;

/// The netcons-serve-v2 error envelope, for the Api's answers and the
/// server's own (a malformed request, a handler that threw):
///   {"schema": "netcons-serve-v2", "error": {"status": N, "message": "..."}}
[[nodiscard]] HttpResponse error_response(int status, const std::string& message);

/// Incremental HTTP/1.1 message parser (exposed for unit tests and the
/// fuzzer). Feed bytes as they arrive; kReady means one complete message
/// is available via take(), which resets the parser for the next one on
/// the connection (keep-alive). kError is fatal for the connection. The
/// server parses requests; http_fetch parses its response with kResponse
/// (a "HTTP/1.1 NNN reason" status line; the body is Content-Length
/// framed, as every netcons_serve response is).
class RequestParser {
 public:
  struct Limits {
    std::size_t max_head = 64u * 1024u;         ///< Start line + headers.
    std::size_t max_body = 8u * 1024u * 1024u;  ///< Content-Length cap.
  };

  enum class Kind { kRequest, kResponse };
  enum class State { kIncomplete, kReady, kError };

  RequestParser() = default;
  explicit RequestParser(Limits limits, Kind kind = Kind::kRequest)
      : limits_(limits), kind_(kind) {}

  State feed(const char* data, std::size_t size);
  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  /// The parsed request; valid only in kReady. Resets for the next one.
  [[nodiscard]] HttpRequest take();

 private:
  State fail(const std::string& message);
  State advance();
  [[nodiscard]] bool parse_head(std::string_view head);
  [[nodiscard]] bool parse_start_line(std::string_view line);

  Limits limits_;
  Kind kind_ = Kind::kRequest;
  State state_ = State::kIncomplete;
  std::string buffer_;
  std::string error_;
  HttpRequest request_;
  std::size_t body_needed_ = 0;
  bool head_done_ = false;
};

/// Accept-thread + worker-pool HTTP server. Connections queue behind the
/// workers; each worker owns one connection at a time and serves its
/// keep-alive request sequence to completion.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;  ///< 0: kernel-assigned; read port() after start().
    int threads = 4;
    double io_timeout_seconds = 30.0;  ///< Per-socket read/write timeout.
    RequestParser::Limits limits;
  };

  /// `handler` runs on worker threads and must be thread-safe. A handler
  /// throw becomes a 500 response; it never kills the worker.
  HttpServer(Options options, Handler handler);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Bind and start serving. Throws std::runtime_error on bind failure.
  void start();
  void stop();

  /// The bound TCP port; valid after start().
  [[nodiscard]] int port() const noexcept { return port_; }

 private:
  void accept_main();
  void worker_main();
  void serve_connection(Socket socket);

  Options options_;
  Handler handler_;
  Socket listener_;
  int port_ = -1;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<Socket> pending_;
  bool stopping_ = false;
  bool started_ = false;
  std::thread acceptor_;
  std::vector<std::thread> workers_;
};

/// Minimal blocking HTTP/1.1 client for fabric workers, tests and benches:
/// one request per call over a fresh connection ("Connection: close").
struct FetchResult {
  int status = 0;
  std::map<std::string, std::string> headers;  ///< Names lower-cased.
  std::string body;
};

/// A non-empty `token` is sent as "Authorization: Bearer <token>".
/// `timeout_seconds` <= 0 blocks forever. Throws std::runtime_error on a
/// connection failure or a malformed or truncated response.
[[nodiscard]] FetchResult http_fetch(const std::string& host, int port,
                                     const std::string& method, const std::string& target,
                                     const std::string& body = {},
                                     double timeout_seconds = 30.0,
                                     const std::string& token = {});

}  // namespace netcons::serve
