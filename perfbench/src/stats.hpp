// The benchmark's own arithmetic, kept free of I/O so tests/test_stats.cpp
// can pin it down: percentiles and the tail-sample rule, the latency
// histogram, interval self time, pool idle fraction, and per-step costs.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Quantile `q` in [0, 1] of `values` by linear interpolation between the
/// closest ranks (the "R-7" rule numpy and spreadsheets use). 0 when empty.
[[nodiscard]] inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(std::floor(position));
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double weight = position - static_cast<double>(below);
  return values[below] + (values[above] - values[below]) * weight;
}

/// Samples strictly above the `percent`-th percentile of `samples` values:
/// n - ceil(n * percent / 100), in integers so p99 of 1000 is exactly 10.
[[nodiscard]] constexpr std::uint64_t samples_beyond(std::uint64_t samples,
                                                     std::uint64_t percent) noexcept {
  const std::uint64_t at_or_below = (samples * percent + 99) / 100;
  return samples > at_or_below ? samples - at_or_below : 0;
}

/// The tail rule: a tail percentile is reported only when at least ten
/// samples lie beyond it.
[[nodiscard]] constexpr bool tail_reportable(std::uint64_t samples,
                                             std::uint64_t percent) noexcept {
  return samples_beyond(samples, percent) >= 10;
}

struct Interval {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

/// Length of the union of `parts` clipped to `window` (overlapping children
/// -- e.g. spans from several threads -- are counted once).
[[nodiscard]] inline std::int64_t covered(const Interval& window, std::vector<Interval> parts) {
  for (Interval& part : parts) {
    part.begin = std::max(part.begin, window.begin);
    part.end = std::min(part.end, window.end);
  }
  std::sort(parts.begin(), parts.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  std::int64_t total = 0;
  std::int64_t reach = window.begin;
  for (const Interval& part : parts) {
    if (part.end <= part.begin) continue;
    const std::int64_t from = std::max(part.begin, reach);
    if (part.end > from) {
      total += part.end - from;
      reach = part.end;
    }
  }
  return total;
}

/// A span's self time: its duration minus the part its children cover.
[[nodiscard]] inline std::int64_t self_time(const Interval& span,
                                            const std::vector<Interval>& children) {
  return (span.end - span.begin) - covered(span, children);
}

/// Share of a pool's capacity (wall x threads) not spent inside trials.
[[nodiscard]] inline double idle_fraction(double busy_seconds, double wall_seconds,
                                          int threads) noexcept {
  const double capacity = wall_seconds * static_cast<double>(threads);
  return capacity > 0.0 ? 1.0 - busy_seconds / capacity : 0.0;
}

/// Nanoseconds per unit of work (effective step, scheduled step); 0 when
/// no work was done.
[[nodiscard]] inline double ns_per(double nanoseconds, std::uint64_t units) noexcept {
  return units > 0 ? nanoseconds / static_cast<double>(units) : 0.0;
}

[[nodiscard]] inline double mean(const std::vector<double>& values) noexcept {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Latencies in a fixed footprint: kPerOctave log-spaced buckets per
/// doubling from kLowest upward, plus an underflow and an overflow bucket.
/// Memory does not grow with the sample count, so a client that records
/// every request does not move the process's peak RSS. quantile() uses the
/// rank rule of the exact quantile() above and interpolates linearly inside
/// the bucket that holds the rank, so it lands within one bucket width
/// (2^(1/64) - 1, about 1.1%) of the exact figure.
class LogHistogram {
 public:
  static constexpr int kPerOctave = 64;
  static constexpr int kOctaves = 30;
  static constexpr double kLowest = 1e-4;  ///< Lower edge of the first log bucket.
  static constexpr std::size_t kBuckets = std::size_t{kPerOctave} * kOctaves + 2;

  void add(double value) noexcept { ++counts_[bucket_of(value)]; }

  void merge(const LogHistogram& other) noexcept {
    for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    std::uint64_t total = 0;
    for (const std::uint64_t c : counts_) total += c;
    return total;
  }

  /// Quantile `q` in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept {
    const std::uint64_t total = count();
    if (total == 0) return 0.0;
    const double position = std::clamp(q, 0.0, 1.0) * static_cast<double>(total - 1);
    std::uint64_t before = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (counts_[b] == 0) continue;
      if (position < static_cast<double>(before + counts_[b])) {
        const double within =
            (position - static_cast<double>(before) + 0.5) / static_cast<double>(counts_[b]);
        return lower_edge(b) + (upper_edge(b) - lower_edge(b)) * std::clamp(within, 0.0, 1.0);
      }
      before += counts_[b];
    }
    return upper_edge(kBuckets - 1);
  }

  [[nodiscard]] static std::size_t bucket_of(double value) noexcept {
    if (!(value >= kLowest)) return 0;
    const double index = std::floor(std::log2(value / kLowest) * kPerOctave) + 1.0;
    return index >= static_cast<double>(kBuckets - 1) ? kBuckets - 1
                                                      : static_cast<std::size_t>(index);
  }
  [[nodiscard]] static double lower_edge(std::size_t bucket) noexcept {
    if (bucket == 0) return 0.0;
    return kLowest * std::exp2(static_cast<double>(bucket - 1) / kPerOctave);
  }
  [[nodiscard]] static double upper_edge(std::size_t bucket) noexcept {
    if (bucket == kBuckets - 1) return lower_edge(bucket);
    return kLowest * std::exp2(static_cast<double>(bucket) / kPerOctave);
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
};

}  // namespace perfbench
