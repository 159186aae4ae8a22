#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace perfbench::trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_thread{1};

struct Buffer;

std::mutex g_mutex;
std::vector<Span> g_retired;  // Spans of threads that have exited.
std::vector<Buffer*> g_live;  // Buffers of running threads.

/// One thread's spans and its stack of open span ids. A thread's spans
/// move to g_retired when it exits (campaign pools are per call).
struct Buffer {
  std::vector<Span> spans;
  std::vector<std::uint64_t> open;
  std::uint32_t thread = g_next_thread.fetch_add(1, std::memory_order_relaxed);
  bool trial_open = false;
  std::uint64_t trial_id = 0;
  std::int64_t trial_begin = 0;

  Buffer() {
    const std::lock_guard lock(g_mutex);
    g_live.push_back(this);
  }
  ~Buffer() {
    const std::lock_guard lock(g_mutex);
    for (Span& span : spans) g_retired.push_back(std::move(span));
    g_live.erase(std::remove(g_live.begin(), g_live.end(), this), g_live.end());
  }
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  [[nodiscard]] std::uint64_t parent() const noexcept { return open.empty() ? 0 : open.back(); }
};

Buffer& buffer() {
  thread_local Buffer local;
  return local;
}

void append_escaped(std::string& out, const std::string& text) {
  out += '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x", static_cast<unsigned>(c));
      out += escaped;
    } else {
      out += c;
    }
  }
  out += '"';
}

}  // namespace

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }

void record(Span span) {
  if (!enabled()) return;
  Buffer& local = buffer();
  span.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span.parent = local.parent();
  span.thread = local.thread;
  local.spans.push_back(std::move(span));
}

Scope::Scope(const char* name) {
  if (!enabled()) return;
  active_ = true;
  Buffer& local = buffer();
  span_.name = name;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = local.parent();
  span_.thread = local.thread;
  local.open.push_back(span_.id);
  span_.begin_ns = now_ns();
}

Scope::~Scope() {
  if (!active_) return;
  span_.end_ns = now_ns();
  Buffer& local = buffer();
  local.open.erase(std::remove(local.open.begin(), local.open.end(), span_.id), local.open.end());
  local.spans.push_back(std::move(span_));
}

void open_trial(std::int64_t begin_ns) {
  if (!enabled()) return;
  Buffer& local = buffer();
  if (local.trial_open) {  // A trial that never reached its observer.
    local.open.erase(std::remove(local.open.begin(), local.open.end(), local.trial_id),
                     local.open.end());
  }
  local.trial_open = true;
  local.trial_id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  local.trial_begin = begin_ns;
  local.open.push_back(local.trial_id);
}

void close_trial(std::string label) {
  Buffer& local = buffer();
  if (!local.trial_open) return;
  local.trial_open = false;
  local.open.erase(std::remove(local.open.begin(), local.open.end(), local.trial_id),
                   local.open.end());
  Span span;
  span.name = "trial";
  span.begin_ns = local.trial_begin;
  span.end_ns = now_ns();
  span.id = local.trial_id;
  span.parent = local.parent();
  span.thread = local.thread;
  span.label = std::move(label);
  local.spans.push_back(std::move(span));
}

std::vector<Span> drain() {
  const std::lock_guard lock(g_mutex);
  std::vector<Span> out = std::move(g_retired);
  g_retired.clear();
  for (Buffer* live : g_live) {
    for (Span& span : live->spans) out.push_back(std::move(span));
    live->spans.clear();
  }
  return out;
}

std::unordered_map<std::uint64_t, std::int64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<Interval>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(span.interval());
  }
  std::unordered_map<std::uint64_t, std::int64_t> out;
  out.reserve(spans.size());
  for (const Span& span : spans) {
    const auto found = children.find(span.id);
    out[span.id] = found == children.end() ? span.end_ns - span.begin_ns
                                           : self_time(span.interval(), found->second);
  }
  return out;
}

std::string chrome_json(const std::vector<Span>& spans) {
  std::string out = "{\"traceEvents\": [\n";
  std::int64_t origin = spans.empty() ? 0 : spans.front().begin_ns;
  for (const Span& span : spans) origin = std::min(origin, span.begin_ns);
  char number[64];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    out += "{\"name\": ";
    append_escaped(out, span.name);
    std::snprintf(number, sizeof number, ", \"ph\": \"X\", \"ts\": %.3f",
                  static_cast<double>(span.begin_ns - origin) / 1e3);
    out += number;
    std::snprintf(number, sizeof number, ", \"dur\": %.3f",
                  static_cast<double>(span.end_ns - span.begin_ns) / 1e3);
    out += number;
    out += ", \"pid\": 1, \"tid\": " + std::to_string(span.thread);
    out += ", \"args\": {\"id\": " + std::to_string(span.id) +
           ", \"parent\": " + std::to_string(span.parent);
    if (span.steps != 0 || span.effective != 0) {
      out += ", \"steps\": " + std::to_string(span.steps) +
             ", \"effective_steps\": " + std::to_string(span.effective);
    }
    if (span.bytes != 0) out += ", \"bytes\": " + std::to_string(span.bytes);
    if (!span.label.empty()) {
      out += ", \"label\": ";
      append_escaped(out, span.label);
    }
    out += i + 1 < spans.size() ? "}},\n" : "}}\n";
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench::trace
