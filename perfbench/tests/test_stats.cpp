// The benchmark's own arithmetic: the percentile rule, the latency
// histogram, self-time subtraction, idle fraction and per-step costs. A plain executable (exit
// status 0 = all checks passed), run by perfbench/test_benchmark.py.
#include "stats.hpp"
#include "trace.hpp"

#include <cmath>
#include <iostream>
#include <string>

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

}  // namespace

int main() {
  using namespace perfbench;

  // Percentiles: linear interpolation between closest ranks.
  check(near(quantile({1, 2, 3, 4}, 0.5), 2.5), "median of 1..4 is 2.5");
  check(near(quantile({4, 1, 3, 2}, 0.0), 1.0), "q0 is the minimum");
  check(near(quantile({4, 1, 3, 2}, 1.0), 4.0), "q1 is the maximum");
  check(near(quantile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9), 9.1), "p90 of 1..10 is 9.1");
  check(quantile({}, 0.5) == 0.0, "empty input gives 0");

  // The tail rule: at least ten samples beyond the percentile.
  check(samples_beyond(1000, 99) == 10, "p99 of 1000 has 10 beyond");
  check(tail_reportable(1000, 99), "p99 reportable at 1000 samples");
  check(!tail_reportable(999, 99), "p99 not reportable at 999 samples");
  check(tail_reportable(100, 90), "p90 reportable at 100 samples");
  check(!tail_reportable(99, 90), "p90 not reportable at 99 samples");
  check(!tail_reportable(160, 99), "p99 not reportable at 160 samples");
  check(samples_beyond(5, 99) == 0, "tiny sets have nothing beyond p99");

  // The latency histogram tracks the exact quantiles within one bucket width.
  {
    LogHistogram histogram, half;
    std::vector<double> samples;
    for (int i = 0; i < 20000; ++i) {
      const double value = 0.05 * std::exp(std::sin(i * 0.7) * 2.0 + (i % 13) * 0.1);
      samples.push_back(value);
      (i % 2 == 0 ? histogram : half).add(value);
    }
    histogram.merge(half);
    check(histogram.count() == samples.size(), "merge keeps every sample");
    for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
      const double exact = quantile(samples, q);
      check(std::fabs(histogram.quantile(q) - exact) <= exact * 0.012,
            "histogram q" + std::to_string(q) + " within a bucket of the exact quantile");
    }
    LogHistogram one;
    one.add(2.0);
    check(one.quantile(0.5) >= LogHistogram::lower_edge(LogHistogram::bucket_of(2.0)) &&
              one.quantile(0.5) <= LogHistogram::upper_edge(LogHistogram::bucket_of(2.0)),
          "a single sample reads inside its own bucket");
    check(LogHistogram{}.quantile(0.5) == 0.0, "an empty histogram gives 0");
    check(LogHistogram::bucket_of(0.0) == 0 && LogHistogram::bucket_of(1e12) ==
                                                   LogHistogram::kBuckets - 1,
          "out-of-range values land in the end buckets");
  }

  // Self time: overlapping children count once, parts outside are clipped.
  check(covered({0, 100}, {{10, 30}, {20, 40}, {90, 120}}) == 40, "union of children");
  check(self_time({0, 100}, {{10, 30}, {20, 40}, {90, 120}}) == 60, "self time of the parent");
  check(self_time({0, 100}, {}) == 100, "a leaf's self time is its duration");

  // Certificate calls inside a simulate span, through the recorder.
  trace::set_enabled(true);
  std::uint64_t simulate_id = 0;
  {
    trace::Scope simulate("simulate");
    simulate_id = simulate.span().id;
    for (int i = 0; i < 2; ++i) {
      const trace::Scope certificate("certificate");
      volatile double sink = 0;
      for (int k = 0; k < 200000; ++k) sink = sink + k;
    }
  }
  trace::set_enabled(false);
  {
    const trace::Scope ignored("not-recorded");
  }
  const std::vector<trace::Span> spans = trace::drain();
  check(spans.size() == 3, "two certificates and one simulate recorded, nothing while off");
  std::int64_t simulate_ns = 0, certificate_ns = 0;
  for (const trace::Span& span : spans) {
    if (span.id == simulate_id) {
      simulate_ns = span.end_ns - span.begin_ns;
    } else {
      check(span.parent == simulate_id, "certificates are children of simulate");
      certificate_ns += span.end_ns - span.begin_ns;
    }
  }
  const auto self = trace::self_times(spans);
  check(self.at(simulate_id) == simulate_ns - certificate_ns,
        "simulate self time excludes its certificate calls");
  check(certificate_ns > 0, "certificates took time");

  // Trial spans opened and closed in separate callbacks parent what ran between.
  trace::set_enabled(true);
  trace::open_trial(trace::now_ns());
  { const trace::Scope target("target"); }
  trace::close_trial("cycle-cover");
  trace::set_enabled(false);
  const std::vector<trace::Span> trial = trace::drain();
  check(trial.size() == 2 && trial[1].name == std::string("trial") &&
            trial[0].parent == trial[1].id && trial[1].label == "cycle-cover",
        "target nests under its trial, which carries the unit label");

  // Pool idle fraction and per-step costs.
  check(near(idle_fraction(3.0, 1.0, 4), 0.25), "3 busy s in 1 s x 4 threads is 25% idle");
  check(near(idle_fraction(4.0, 1.0, 4), 0.0), "a saturated pool is 0% idle");
  check(near(ns_per(1000.0, 10), 100.0), "1000 ns over 10 steps");
  check(ns_per(5.0, 0) == 0.0, "no steps gives 0");

  if (g_failures == 0) std::cout << "perfbench arithmetic: all checks passed\n";
  return g_failures == 0 ? 0 : 1;
}
