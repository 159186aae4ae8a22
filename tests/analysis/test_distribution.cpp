#include "analysis/distribution.hpp"

#include "campaign/campaign.hpp"
#include "campaign/registry.hpp"
#include "campaign/seeds.hpp"
#include "campaign/trial_record.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <random>
#include <vector>

namespace netcons::analysis {
namespace {

/// Brute-force reference statistics over the raw sample vector — the
/// acceptance criterion cross-checks the streamed pipeline against these on
/// every input up to 4096 trials.
struct Reference {
  std::vector<std::uint64_t> sorted;

  explicit Reference(std::vector<std::uint64_t> samples) : sorted(std::move(samples)) {
    std::sort(sorted.begin(), sorted.end());
  }

  [[nodiscard]] double mean() const {
    double sum = 0.0;
    for (const std::uint64_t v : sorted) sum += static_cast<double>(v);
    return sum / static_cast<double>(sorted.size());
  }

  [[nodiscard]] double variance() const {
    const double mu = mean();
    double m2 = 0.0;
    for (const std::uint64_t v : sorted) {
      const double delta = static_cast<double>(v) - mu;
      m2 += delta * delta;
    }
    return m2 / static_cast<double>(sorted.size() - 1);
  }

  /// Linear-interpolated order statistic (the RunningStats convention).
  [[nodiscard]] double quantile(double p) const {
    const double position = p * static_cast<double>(sorted.size() - 1);
    const auto lower = static_cast<std::size_t>(position);
    const double fraction = position - static_cast<double>(lower);
    if (lower + 1 >= sorted.size()) return static_cast<double>(sorted.back());
    return static_cast<double>(sorted[lower]) * (1.0 - fraction) +
           static_cast<double>(sorted[lower + 1]) * fraction;
  }

  /// F(x) = #(samples <= x) for every distinct value, ascending.
  [[nodiscard]] std::vector<EcdfPoint> ecdf() const {
    std::vector<EcdfPoint> out;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      if (!out.empty() && out.back().value == sorted[i]) {
        ++out.back().cumulative;
      } else {
        out.push_back({sorted[i], out.empty() ? 1 : out.back().cumulative + 1, 0.0});
      }
      out.back().fraction =
          static_cast<double>(out.back().cumulative) / static_cast<double>(sorted.size());
    }
    return out;
  }

  /// Histogram by direct per-sample bin assignment.
  [[nodiscard]] std::vector<std::uint64_t> histogram(double lo, double width,
                                                     std::size_t bins) const {
    std::vector<std::uint64_t> counts(bins, 0);
    for (const std::uint64_t v : sorted) {
      auto bin = static_cast<std::size_t>((static_cast<double>(v) - lo) / width);
      if (bin >= bins) bin = bins - 1;
      ++counts[bin];
    }
    return counts;
  }
};

std::vector<std::uint64_t> random_samples(std::size_t count, std::uint64_t seed,
                                          std::uint64_t range) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> samples(count);
  for (auto& sample : samples) sample = rng() % range;
  return samples;
}

TEST(ValueDistribution, MatchesBruteForceOnRandomMultisets) {
  for (const std::size_t count : {1u, 2u, 7u, 100u, 4096u}) {
    const std::vector<std::uint64_t> samples = random_samples(count, 42 + count, 500);
    ValueDistribution dist;
    for (const std::uint64_t sample : samples) dist.add(sample);
    const Reference ref(samples);

    ASSERT_EQ(dist.count(), count);
    EXPECT_EQ(dist.min(), ref.sorted.front());
    EXPECT_EQ(dist.max(), ref.sorted.back());
    EXPECT_NEAR(dist.mean(), ref.mean(), 1e-9 * std::max(1.0, ref.mean()));
    if (count >= 2) {
      EXPECT_NEAR(dist.variance(), ref.variance(), 1e-6);
    }
    for (const double p : {0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
      EXPECT_NEAR(dist.quantile(p), ref.quantile(p), 1e-9) << "count=" << count << " p=" << p;
    }
  }
}

TEST(ValueDistribution, EcdfMatchesBruteForce) {
  const std::vector<std::uint64_t> samples = random_samples(4096, 7, 300);
  ValueDistribution dist;
  for (const std::uint64_t sample : samples) dist.add(sample);
  const std::vector<EcdfPoint> expected = Reference(samples).ecdf();
  const std::vector<EcdfPoint> actual = ecdf(dist);

  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].value, expected[i].value);
    EXPECT_EQ(actual[i].cumulative, expected[i].cumulative);
    EXPECT_DOUBLE_EQ(actual[i].fraction, expected[i].fraction);
  }
  EXPECT_EQ(actual.back().cumulative, dist.count());
  EXPECT_DOUBLE_EQ(actual.back().fraction, 1.0);
}

TEST(ValueDistribution, StatisticsAreInsertionOrderIndependent) {
  std::vector<std::uint64_t> samples = random_samples(2048, 11, 1000);
  ValueDistribution forward;
  for (const std::uint64_t sample : samples) forward.add(sample);
  std::reverse(samples.begin(), samples.end());
  ValueDistribution reverse;
  for (const std::uint64_t sample : samples) reverse.add(sample);

  // Bit-identical, not merely close: the byte-stable report contract.
  EXPECT_EQ(forward.mean(), reverse.mean());
  EXPECT_EQ(forward.variance(), reverse.variance());
  EXPECT_EQ(forward.quantile(0.9), reverse.quantile(0.9));
  const Histogram ha = histogram(forward);
  const Histogram hb = histogram(reverse);
  EXPECT_EQ(ha.lo, hb.lo);
  EXPECT_EQ(ha.width, hb.width);
  EXPECT_EQ(ha.counts, hb.counts);
}

TEST(Histogram, BinAssignmentMatchesBruteForceAndEdgesAreDeterministic) {
  const std::vector<std::uint64_t> samples = random_samples(4096, 3, 977);
  ValueDistribution dist;
  for (const std::uint64_t sample : samples) dist.add(sample);
  const Reference ref(samples);

  for (const int bins : {1, 2, 7, 32, 256}) {
    const Histogram h = histogram(dist, bins);
    ASSERT_EQ(h.bins(), static_cast<std::size_t>(bins));
    // Edges are the exact affine grid over [min, max]: lo + i * width.
    EXPECT_EQ(h.lo, static_cast<double>(dist.min()));
    EXPECT_EQ(h.width,
              static_cast<double>(dist.max() - dist.min()) / static_cast<double>(bins));
    for (std::size_t i = 0; i <= h.bins(); ++i) {
      EXPECT_EQ(h.edge(i), h.lo + h.width * static_cast<double>(i));
    }
    EXPECT_EQ(h.counts, ref.histogram(h.lo, h.width, h.bins()));
    std::uint64_t total = 0;
    for (const std::uint64_t c : h.counts) total += c;
    EXPECT_EQ(total, dist.count());  // Every sample lands in exactly one bin.
  }
}

TEST(Histogram, DegenerateShapes) {
  ValueDistribution empty;
  EXPECT_EQ(freedman_diaconis_bins(empty), 0);
  EXPECT_TRUE(histogram(empty).counts.empty());

  ValueDistribution single;
  single.add(77, 123);
  EXPECT_EQ(freedman_diaconis_bins(single), 1);
  const Histogram h = histogram(single);
  ASSERT_EQ(h.bins(), 1u);
  EXPECT_EQ(h.counts[0], 123u);
  EXPECT_EQ(h.lo, 77.0);
  EXPECT_EQ(h.width, 0.0);
}

TEST(Histogram, FreedmanDiaconisFallsBackAndCaps) {
  // IQR == 0 but a nonzero span: Sturges fallback, floor(log2 n) + 1.
  ValueDistribution spiked;
  spiked.add(10, 1000);
  spiked.add(20, 1);
  EXPECT_EQ(freedman_diaconis_bins(spiked), static_cast<int>(std::floor(std::log2(1001))) + 1);

  // A huge span against a tiny IQR: the requested width would imply
  // millions of bins; the cap bounds the document size.
  ValueDistribution heavy_tail;
  for (std::uint64_t v = 0; v < 128; ++v) heavy_tail.add(v, 8);
  heavy_tail.add(1u << 30, 1);
  EXPECT_EQ(freedman_diaconis_bins(heavy_tail), kMaxHistogramBins);

  // The ordinary regime: 2 * IQR / cbrt(n) width over the span.
  const std::vector<std::uint64_t> samples = random_samples(1000, 5, 1000);
  ValueDistribution dist;
  for (const std::uint64_t sample : samples) dist.add(sample);
  const double iqr = dist.quantile(0.75) - dist.quantile(0.25);
  const double span = static_cast<double>(dist.max() - dist.min());
  const double expected = std::ceil(span / (2.0 * iqr / std::cbrt(1000.0)));
  EXPECT_EQ(freedman_diaconis_bins(dist), static_cast<int>(expected));
}

TEST(KsDistance, KnownValuesAndProperties) {
  ValueDistribution a;
  ValueDistribution b;
  EXPECT_EQ(ks_distance(a, b), 0.0);  // Empty sides compare as 0 by contract.

  a.add(0);
  b.add(1);
  EXPECT_DOUBLE_EQ(ks_distance(a, b), 1.0);  // Disjoint supports.

  // A = {0, 1}, B = {1}: F_A(0) = 1/2, F_B(0) = 0 -> sup = 1/2.
  ValueDistribution c;
  c.add(0);
  c.add(1);
  ValueDistribution d;
  d.add(1);
  EXPECT_DOUBLE_EQ(ks_distance(c, d), 0.5);
  EXPECT_DOUBLE_EQ(ks_distance(d, c), 0.5);  // Symmetric.
  EXPECT_DOUBLE_EQ(ks_distance(c, c), 0.0);  // Identical.

  // Same distribution at different sample sizes: KS(F, F) stays 0.
  ValueDistribution scaled;
  scaled.add(0, 3);
  scaled.add(1, 3);
  EXPECT_DOUBLE_EQ(ks_distance(c, scaled), 0.0);

  // Brute-force reference on random data: max ECDF gap over the support.
  const std::vector<std::uint64_t> sa = random_samples(512, 21, 64);
  const std::vector<std::uint64_t> sb = random_samples(768, 22, 64);
  ValueDistribution da;
  ValueDistribution db;
  for (const std::uint64_t v : sa) da.add(v);
  for (const std::uint64_t v : sb) db.add(v);
  double expected = 0.0;
  for (std::uint64_t x = 0; x < 64; ++x) {
    const auto below = [x](const std::vector<std::uint64_t>& s) {
      return static_cast<double>(std::count_if(s.begin(), s.end(),
                                               [x](std::uint64_t v) { return v <= x; })) /
             static_cast<double>(s.size());
    };
    expected = std::max(expected, std::abs(below(sa) - below(sb)));
  }
  EXPECT_DOUBLE_EQ(ks_distance(da, db), expected);
}

TEST(Metrics, NamesRoundTripAndInclusionRulesMirrorTheReduction) {
  for (const Metric metric : all_metrics()) {
    EXPECT_EQ(metric_from_name(metric_name(metric)), metric);
  }
  EXPECT_FALSE(metric_from_name("no_such_metric").has_value());

  campaign::TrialOutcome success;
  success.success = true;
  success.value = 11;
  success.steps_executed = 22;
  success.recovery_steps = 33;
  success.edges_residual = 44;
  campaign::TrialOutcome failure = success;
  failure.success = false;

  // Fault-free points: convergence only on success, steps always,
  // recovery metrics never.
  EXPECT_EQ(metric_sample(Metric::kConvergenceSteps, success, false), 11u);
  EXPECT_EQ(metric_sample(Metric::kConvergenceSteps, failure, false), std::nullopt);
  EXPECT_EQ(metric_sample(Metric::kStepsExecuted, failure, false), 22u);
  EXPECT_EQ(metric_sample(Metric::kRecoverySteps, success, false), std::nullopt);
  EXPECT_EQ(metric_sample(Metric::kEdgesResidual, success, false), std::nullopt);

  // Faulted points: recovery on success, residual damage on every trial.
  EXPECT_EQ(metric_sample(Metric::kRecoverySteps, success, true), 33u);
  EXPECT_EQ(metric_sample(Metric::kRecoverySteps, failure, true), std::nullopt);
  EXPECT_EQ(metric_sample(Metric::kEdgesResidual, failure, true), 44u);
}

campaign::CampaignHeader two_point_header(int trials) {
  campaign::CampaignHeader header;
  header.base_seed = 9;
  header.trials = trials;
  for (int p = 0; p < 2; ++p) {
    campaign::GridPoint point;
    point.unit = "synthetic";
    point.n = 8 * (p + 1);
    point.faulted = (p == 1);
    point.faults = (p == 1) ? "crash:k=1" : "none";
    point.seed = campaign::point_seed(header.base_seed, static_cast<std::uint64_t>(p));
    header.points.push_back(point);
  }
  return header;
}

campaign::TrialRecord make_record(std::size_t point, int trial, std::uint64_t value) {
  campaign::TrialRecord record;
  record.point = point;
  record.trial = trial;
  record.outcome.success = true;
  record.outcome.value = value;
  record.outcome.steps_executed = value + 1;
  record.outcome.recovery_steps = value / 2;
  record.outcome.edges_residual = value % 3;
  return record;
}

TEST(RecordDistributionBuilder, LastWinsAndArrivalOrderIndependence) {
  const campaign::CampaignHeader header = two_point_header(3);

  RecordDistributionBuilder forward(header);
  for (const std::size_t p : {0u, 1u}) {
    for (int t = 0; t < 3; ++t) forward.add(make_record(p, t, 10 * p + t));
  }
  EXPECT_EQ(forward.filled(), 6u);
  EXPECT_EQ(forward.missing(), 0u);
  EXPECT_EQ(forward.duplicates(), 0u);

  // Same record set in reverse arrival order, with a stale duplicate that
  // a fresher record then supersedes.
  RecordDistributionBuilder shuffled(header);
  shuffled.add(make_record(1, 2, 999));  // Stale: will be overwritten.
  for (int t = 2; t >= 0; --t) {
    for (const std::size_t p : {1u, 0u}) shuffled.add(make_record(p, t, 10 * p + t));
  }
  EXPECT_EQ(shuffled.duplicates(), 1u);
  EXPECT_EQ(shuffled.filled(), 6u);

  const std::vector<PointDistributions> a = forward.build();
  const std::vector<PointDistributions> b = shuffled.build();
  ASSERT_EQ(a.size(), 2u);
  for (std::size_t p = 0; p < 2; ++p) {
    for (const Metric metric : all_metrics()) {
      const ValueDistribution& da = a[p].metric(metric);
      const ValueDistribution& db = b[p].metric(metric);
      EXPECT_EQ(da.counts(), db.counts()) << "point " << p;
    }
  }
  // The faulted point exposes recovery metrics; the fault-free one never.
  EXPECT_EQ(a[0].metric(Metric::kRecoverySteps).count(), 0u);
  EXPECT_EQ(a[1].metric(Metric::kRecoverySteps).count(), 3u);
}

TEST(RecordDistributionBuilder, TracksMissingSlotsAndRejectsOutOfGrid) {
  const campaign::CampaignHeader header = two_point_header(4);
  RecordDistributionBuilder builder(header);
  builder.add(make_record(0, 0, 1));
  builder.add(make_record(1, 3, 2));
  EXPECT_EQ(builder.filled(), 2u);
  EXPECT_EQ(builder.missing(), 6u);
  const auto missing = builder.first_missing();
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->first, 0u);
  EXPECT_EQ(missing->second, 1);

  EXPECT_THROW(builder.add(make_record(2, 0, 1)), std::out_of_range);
  EXPECT_THROW(builder.add(make_record(0, 4, 1)), std::out_of_range);
}

TEST(RecordDistributionBuilder, AgreesWithEngineAggregatesOnALiveCampaign) {
  campaign::CampaignSpec spec;
  spec.units.push_back(
      campaign::Unit::protocol("cycle-cover", *campaign::make_protocol("cycle-cover")));
  spec.ns = {8, 12};
  spec.trials = 25;
  spec.base_seed = 31;

  std::vector<campaign::TrialRecord> records;
  campaign::RunOptions options;
  options.threads = 2;
  std::mutex mutex;  // on_trial runs on the worker threads
  options.on_trial = [&records, &mutex](std::size_t point, int trial, std::uint64_t seed,
                                        const campaign::TrialOutcome& outcome) {
    const std::lock_guard<std::mutex> lock(mutex);
    records.push_back(campaign::TrialRecord{point, trial, seed, outcome});
  };
  const campaign::CampaignResult live = campaign::run(spec, options);
  ASSERT_TRUE(live.complete);

  RecordDistributionBuilder builder(campaign::CampaignHeader::describe(spec));
  for (const campaign::TrialRecord& record : records) builder.add(record);
  const std::vector<PointDistributions> dists = builder.build();

  ASSERT_EQ(dists.size(), live.points.size());
  for (std::size_t p = 0; p < dists.size(); ++p) {
    const ValueDistribution& convergence = dists[p].metric(Metric::kConvergenceSteps);
    const RunningStats& engine = live.points[p].convergence_steps;
    EXPECT_EQ(convergence.count(), engine.count());
    EXPECT_NEAR(convergence.mean(), engine.mean(), 1e-9 * std::max(1.0, engine.mean()));
    EXPECT_EQ(static_cast<double>(convergence.min()), engine.min());
    EXPECT_EQ(static_cast<double>(convergence.max()), engine.max());
    EXPECT_NEAR(convergence.quantile(0.5), engine.median(), 1e-9);
  }
}

}  // namespace
}  // namespace netcons::analysis
