// The benchmark's span recorder. Spans are opened and closed by the
// benchmark's own files around calls into the library (the program itself
// is not instrumented), kept in per-thread memory, gathered once the
// threads that wrote them are quiescent, and written out at exit as a
// Chrome/Perfetto trace.
//
// Recording is off unless set_enabled(true): the untraced runs that give
// the end-to-end metrics never construct a span.
#pragma once

#include "stats.hpp"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench::trace {

/// Which stepping path a `simulate` span ran on.
enum class Path : std::uint8_t { kNone, kCensusUniform, kCensusWeighted, kNaive };

struct Span {
  const char* name = "";  ///< Static string (a span-name literal).
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: a root span.
  std::uint32_t thread = 0;
  Path path = Path::kNone;
  std::uint64_t steps = 0;      ///< simulate: scheduled steps of the trial.
  std::uint64_t effective = 0;  ///< simulate: effective steps of the trial.
  std::uint64_t bytes = 0;      ///< record_write: line bytes; target: graph bytes.
  std::string label;            ///< trial: the protocol (grid unit) name.

  [[nodiscard]] Interval interval() const noexcept { return {begin_ns, end_ns}; }
  [[nodiscard]] double ms() const noexcept {
    return static_cast<double>(end_ns - begin_ns) / 1e6;
  }
};

[[nodiscard]] std::int64_t now_ns() noexcept;

[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Record a finished span on the calling thread, parented to the span
/// currently open there. Ignored while recording is off.
void record(Span span);

/// RAII span around a call. Captures `enabled()` at construction, so a
/// toggle mid-call never leaves half a span.
class Scope {
 public:
  explicit Scope(const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// The span being built (fill steps/bytes/path before the scope ends).
  [[nodiscard]] Span& span() noexcept { return span_; }
  [[nodiscard]] bool active() const noexcept { return active_; }

 private:
  Span span_;
  bool active_ = false;
};

/// A span whose open and close happen in different callbacks on one thread
/// (a campaign trial: opened when the trial builds its scheduler, closed in
/// the on_trial observer). Spans recorded in between become its children.
void open_trial(std::int64_t begin_ns);
/// Close the open trial span (no-op when none is open).
void close_trial(std::string label);

/// Every span recorded so far, from all threads. Precondition: no other
/// thread is recording (campaign pools joined, servers stopped).
[[nodiscard]] std::vector<Span> drain();

/// Self time (ns) of every span: its duration minus the union of its
/// children's intervals.
[[nodiscard]] std::unordered_map<std::uint64_t, std::int64_t> self_times(
    const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" events, microseconds).
[[nodiscard]] std::string chrome_json(const std::vector<Span>& spans);

}  // namespace perfbench::trace
