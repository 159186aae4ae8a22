#include "serve/http.hpp"

#include "campaign/json.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <utility>

namespace netcons::serve {

namespace {

constexpr std::size_t kStreamChunk = 64u * 1024u;

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

sockaddr_in resolve(const std::string& host, int port) {
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    throw std::runtime_error("serve: not an IPv4 address: '" + host + "'");
  }
  return address;
}

/// Listening IPv4 socket on `host:port` (port 0: kernel-assigned).
Socket listen_on(const std::string& host, int port) {
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) throw std::runtime_error(errno_text("serve: socket"));
  const int enable = 1;
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable);
  const sockaddr_in address = resolve(host, port);
  if (::bind(socket.fd(), reinterpret_cast<const sockaddr*>(&address), sizeof address) != 0) {
    throw std::runtime_error(errno_text("serve: bind"));
  }
  if (::listen(socket.fd(), 64) != 0) throw std::runtime_error(errno_text("serve: listen"));
  return socket;
}

/// The port a bound socket actually listens on.
int local_port(const Socket& socket) {
  sockaddr_in address{};
  socklen_t size = sizeof address;
  if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&address), &size) != 0) {
    throw std::runtime_error(errno_text("serve: getsockname"));
  }
  return static_cast<int>(ntohs(address.sin_port));
}

/// Write all of `data`, restarting on EINTR; false once the peer is gone.
bool send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    // MSG_NOSIGNAL: a vanished client must surface as EPIPE, not SIGPIPE.
    const ssize_t written = ::send(fd, data, size, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += written;
    size -= static_cast<std::size_t>(written);
  }
  return true;
}

void set_io_timeout(int fd, double seconds) {
  if (seconds <= 0.0) return;
  timeval timeout{};
  timeout.tv_sec = static_cast<time_t>(seconds);
  timeout.tv_usec =
      static_cast<suseconds_t>((seconds - static_cast<double>(timeout.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
}

std::string lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) text.remove_prefix(1);
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) text.remove_suffix(1);
  return text;
}

/// Serialize status line + headers; the caller appends or streams the body.
std::string response_head(const HttpResponse& response, std::size_t content_length,
                          bool close_connection) {
  std::string head = "HTTP/1.1 " + std::to_string(response.status) + " ";
  head += status_reason(response.status);
  head += "\r\nContent-Type: " + response.content_type;
  head += "\r\nContent-Length: " + std::to_string(content_length);
  head += close_connection ? "\r\nConnection: close" : "\r\nConnection: keep-alive";
  head += "\r\n\r\n";
  return head;
}

/// False once the client is gone (the connection is then abandoned).
bool write_response(int fd, HttpResponse response, bool close_connection) {
  if (!response.file_path.empty()) {
    std::ifstream file(response.file_path, std::ios::binary);
    std::error_code ec;
    const auto size = std::filesystem::file_size(response.file_path, ec);
    if (!file || ec) {
      // The artifact vanished between the handler's check and the stream
      // (an eviction race): headers are not out yet, so say so honestly.
      return write_response(
          fd, error_response(404, "artifact disappeared before it could be streamed"),
          close_connection);
    }
    const std::string head =
        response_head(response, static_cast<std::size_t>(size), close_connection);
    if (!send_all(fd, head.data(), head.size())) return false;
    std::string chunk(kStreamChunk, '\0');
    std::uintmax_t remaining = size;
    while (remaining > 0) {
      const std::size_t want =
          static_cast<std::size_t>(std::min<std::uintmax_t>(remaining, chunk.size()));
      file.read(chunk.data(), static_cast<std::streamsize>(want));
      if (file.gcount() <= 0) return false;  // Torn mid-stream; drop the connection.
      const std::size_t got = static_cast<std::size_t>(file.gcount());
      if (!send_all(fd, chunk.data(), got)) return false;
      remaining -= got;
    }
    return true;
  }
  const std::string head = response_head(response, response.body.size(), close_connection);
  return send_all(fd, head.data(), head.size()) &&
         send_all(fd, response.body.data(), response.body.size());
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket connect_to(const std::string& host, int port, double io_timeout_seconds) {
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) throw std::runtime_error(errno_text("serve: socket"));
  set_io_timeout(socket.fd(), io_timeout_seconds);
  const sockaddr_in address = resolve(host, port);
  if (::connect(socket.fd(), reinterpret_cast<const sockaddr*>(&address), sizeof address) != 0) {
    throw std::runtime_error("serve: cannot connect to " + host + ":" + std::to_string(port) +
                             ": " + std::strerror(errno));
  }
  return socket;
}

HttpResponse error_response(int status, const std::string& message) {
  HttpResponse response;
  response.status = status;
  response.body = "{\"schema\": \"netcons-serve-v2\", \"error\": {\"status\": " +
                  std::to_string(status) + ", \"message\": ";
  campaign::json::append_escaped(response.body, message);
  response.body += "}}\n";
  return response;
}

std::string_view status_reason(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 202: return "Accepted";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 401: return "Unauthorized";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

RequestParser::State RequestParser::fail(const std::string& message) {
  error_ = message;
  state_ = State::kError;
  return state_;
}

bool RequestParser::parse_start_line(std::string_view line) {
  if (kind_ == Kind::kResponse) {
    // "HTTP/1.1 200 OK": version, a three-digit code, an optional reason.
    if (line.size() < 12 || line.substr(0, 9) != "HTTP/1.1 " ||
        (line.size() > 12 && line[12] != ' ')) {
      return false;
    }
    for (std::size_t i = 9; i < 12; ++i) {
      if (line[i] < '0' || line[i] > '9') return false;
      request_.status = request_.status * 10 + (line[i] - '0');
    }
    return true;
  }
  const std::size_t method_end = line.find(' ');
  const std::size_t target_end =
      method_end == std::string_view::npos ? std::string_view::npos
                                           : line.find(' ', method_end + 1);
  if (method_end == std::string_view::npos || target_end == std::string_view::npos) {
    return false;
  }
  request_.method = std::string(line.substr(0, method_end));
  request_.target = std::string(line.substr(method_end + 1, target_end - method_end - 1));
  const std::string_view version = line.substr(target_end + 1);
  if (version != "HTTP/1.1" || request_.method.empty() || request_.target.empty() ||
      request_.target[0] != '/') {
    return false;
  }
  const std::size_t query = request_.target.find('?');
  request_.path = request_.target.substr(0, query);
  request_.query = query == std::string::npos ? std::string() : request_.target.substr(query + 1);
  return true;
}

bool RequestParser::parse_head(std::string_view head) {
  const std::size_t line_end = head.find("\r\n");
  if (!parse_start_line(head.substr(0, line_end))) return false;
  std::size_t cursor = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (cursor < head.size()) {
    std::size_t end = head.find("\r\n", cursor);
    if (end == std::string_view::npos) end = head.size();
    const std::string_view line = head.substr(cursor, end - cursor);
    cursor = end + 2;
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) return false;
    request_.headers[lower(line.substr(0, colon))] = std::string(trim(line.substr(colon + 1)));
  }
  return true;
}

RequestParser::State RequestParser::advance() {
  if (state_ == State::kError) return state_;
  if (!head_done_) {
    const std::size_t head_end = buffer_.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      if (buffer_.size() > limits_.max_head) return fail("request head too large");
      state_ = State::kIncomplete;
      return state_;
    }
    if (head_end > limits_.max_head) return fail("request head too large");
    if (!parse_head(std::string_view(buffer_).substr(0, head_end))) {
      return fail("malformed request line or header");
    }
    if (request_.headers.count("transfer-encoding") != 0) {
      return fail("transfer-encoding is not supported; send Content-Length");
    }
    if (const auto it = request_.headers.find("content-length"); it != request_.headers.end()) {
      const std::string& value = it->second;
      if (value.empty() ||
          value.find_first_not_of("0123456789") != std::string::npos ||
          value.size() > 12) {
        return fail("malformed Content-Length");
      }
      body_needed_ = static_cast<std::size_t>(std::stoull(value));
      if (body_needed_ > limits_.max_body) return fail("request body too large");
    }
    buffer_.erase(0, head_end + 4);
    head_done_ = true;
  }
  if (buffer_.size() < body_needed_) {
    state_ = State::kIncomplete;
    return state_;
  }
  request_.body = buffer_.substr(0, body_needed_);
  buffer_.erase(0, body_needed_);
  state_ = State::kReady;
  return state_;
}

RequestParser::State RequestParser::feed(const char* data, std::size_t size) {
  buffer_.append(data, size);
  return advance();
}

HttpRequest RequestParser::take() {
  HttpRequest out = std::move(request_);
  request_ = HttpRequest{};
  head_done_ = false;
  body_needed_ = 0;
  state_ = State::kIncomplete;
  advance();  // A pipelined next request may already be complete.
  return out;
}

HttpServer::HttpServer(Options options, Handler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {}

HttpServer::~HttpServer() { stop(); }

void HttpServer::start() {
  listener_ = listen_on(options_.host, options_.port);
  port_ = local_port(listener_);
  started_ = true;
  acceptor_ = std::thread([this] { accept_main(); });
  const int threads = std::max(1, options_.threads);
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

void HttpServer::stop() {
  if (!started_) return;
  {
    std::lock_guard lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  // shutdown(), not close(): on Linux closing a listening fd does not wake
  // a thread blocked in accept(), while shutdown() does (accept fails with
  // EINVAL). The fd itself is closed only after the acceptor joined, so it
  // cannot be reused by another open() mid-accept.
  if (listener_.valid()) ::shutdown(listener_.fd(), SHUT_RDWR);
  work_cv_.notify_all();
  acceptor_.join();
  for (std::thread& worker : workers_) worker.join();
  listener_.close();
}

void HttpServer::accept_main() {
  for (;;) {
    Socket client(::accept(listener_.fd(), nullptr, nullptr));
    {
      std::lock_guard lock(mutex_);
      if (stopping_) return;
      if (!client.valid()) continue;  // Transient accept failure.
      pending_.push_back(std::move(client));
    }
    work_cv_.notify_one();
  }
}

void HttpServer::worker_main() {
  for (;;) {
    Socket socket;
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait(lock, [&] { return stopping_ || !pending_.empty(); });
      if (stopping_) return;  // Queued connections are dropped on stop.
      socket = std::move(pending_.front());
      pending_.pop_front();
    }
    serve_connection(std::move(socket));
  }
}

void HttpServer::serve_connection(Socket socket) {
  set_io_timeout(socket.fd(), options_.io_timeout_seconds);
  RequestParser parser(options_.limits);
  char buffer[16384];
  for (;;) {
    while (parser.state() == RequestParser::State::kReady) {
      const HttpRequest request = parser.take();
      const auto connection = request.headers.find("connection");
      const bool client_close =
          connection != request.headers.end() && lower(connection->second) == "close";
      HttpResponse response;
      try {
        response = handler_(request);
      } catch (const std::exception& error) {
        response = error_response(500, error.what());
      }
      if (!write_response(socket.fd(), std::move(response), client_close)) return;
      if (client_close) return;
    }
    if (parser.state() == RequestParser::State::kError) {
      write_response(socket.fd(), error_response(400, parser.error()), true);
      return;
    }
    const ssize_t n = ::recv(socket.fd(), buffer, sizeof buffer, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // Timeout or hard error: drop the idle connection.
    }
    if (n == 0) return;  // Client closed.
    parser.feed(buffer, static_cast<std::size_t>(n));
  }
}

FetchResult http_fetch(const std::string& host, int port, const std::string& method,
                       const std::string& target, const std::string& body,
                       double timeout_seconds, const std::string& token) {
  Socket socket = connect_to(host, port, timeout_seconds);
  std::string request = method + " " + target + " HTTP/1.1\r\nHost: " + host + ":" +
                        std::to_string(port) + "\r\nConnection: close\r\n";
  if (!token.empty()) request += "Authorization: Bearer " + token + "\r\n";
  if (!body.empty() || method == "POST" || method == "PUT") {
    request += "Content-Type: application/json\r\nContent-Length: " +
               std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n";
  request += body;
  if (!send_all(socket.fd(), request.data(), request.size())) {
    throw std::runtime_error("http_fetch: send failed: " + std::string(std::strerror(errno)));
  }

  // Artifact downloads may be large: the body cap is the server's to keep.
  RequestParser parser({.max_body = std::numeric_limits<std::size_t>::max()},
                       RequestParser::Kind::kResponse);
  char buffer[16384];
  while (parser.state() == RequestParser::State::kIncomplete) {
    const ssize_t n = ::recv(socket.fd(), buffer, sizeof buffer, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("http_fetch: recv failed: " + std::string(std::strerror(errno)));
    }
    if (n == 0) throw std::runtime_error("http_fetch: truncated response");
    parser.feed(buffer, static_cast<std::size_t>(n));
  }
  if (parser.state() == RequestParser::State::kError) {
    throw std::runtime_error("http_fetch: malformed response: " + parser.error());
  }
  HttpRequest response = parser.take();
  return FetchResult{response.status, std::move(response.headers), std::move(response.body)};
}

}  // namespace netcons::serve
