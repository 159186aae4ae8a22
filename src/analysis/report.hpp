// Shared rendering of the netcons-report-v1 document and its CSV
// companions over per-point distribution builders, the grid-point pairing
// of `netcons_report --compare`, and the exponent fit over campaign points.
//
// This is the one implementation behind every surface that emits a report:
// the netcons_report CLI and the serve-layer result cache both call these
// functions, so a daemon-served report is byte-identical to the CLI's for
// the same record set — the property the serve CI gate cmp-enforces.
// Statistics are computed in canonical (point, metric) order from the
// builder's exact distributions; the output bytes depend only on the
// record *set*, never on file arrangement or arrival order.
#pragma once

#include "analysis/distribution.hpp"
#include "campaign/campaign.hpp"
#include "campaign/trial_record.hpp"
#include "util/stats.hpp"

#include <string>
#include <vector>

namespace netcons::analysis {

/// What to render: which metrics (in emission order) and how to bin
/// histograms. default_report_spec() — every metric, Freedman–Diaconis —
/// is what the CLI emits with no --metrics/--bins flags and what the serve
/// cache stores.
struct ReportSpec {
  std::vector<Metric> metrics;
  int bins = 0;  ///< <= 0: Freedman–Diaconis.
};

[[nodiscard]] ReportSpec default_report_spec();

/// Stream every record under `inputs` (files and/or directories) into a
/// distribution builder. Throws std::runtime_error when the inputs hold no
/// records, on header mismatches, and on corrupt record lines.
[[nodiscard]] RecordDistributionBuilder load_distributions(
    const std::vector<std::string>& inputs);

/// Metrics that can ever have samples at this point (recovery metrics only
/// exist under a fault plan); emitting on applicability — not on observed
/// counts — keeps the document layout a pure function of the grid.
[[nodiscard]] bool metric_applicable(Metric metric, bool faulted);

/// The netcons-report-v1 JSON document. `dists` must be `builder.build()`.
[[nodiscard]] std::string report_json(const RecordDistributionBuilder& builder,
                                      const std::vector<PointDistributions>& dists,
                                      const ReportSpec& spec);

/// Per-point histogram rows ("unit,scheduler,...,bin,lo,hi,count").
[[nodiscard]] std::string histogram_csv(const campaign::CampaignHeader& header,
                                        const std::vector<PointDistributions>& dists,
                                        const ReportSpec& spec);

/// Per-point exact ECDF rows ("unit,scheduler,...,value,cumulative,fraction").
[[nodiscard]] std::string ecdf_csv(const campaign::CampaignHeader& header,
                                   const std::vector<PointDistributions>& dists,
                                   const ReportSpec& spec);

/// One row of the percentile-over-n trend view: a (unit, scheduler,
/// faults, engine, metric) series traced across the grid's population
/// sizes. Rows are grouped by series in header first-appearance order with
/// n ascending within a series -- a pure function of the grid, so the
/// rendering is byte-stable like the rest of report-v1.
struct TrendRow {
  std::size_t point = 0;  ///< Index into header.points.
  Metric metric = Metric::kConvergenceSteps;
};

/// The trend row order over the header's grid points (shared by the CSV,
/// the JSON, and the CLI table so all three agree line-for-line).
[[nodiscard]] std::vector<TrendRow> trend_rows(const campaign::CampaignHeader& header,
                                               const ReportSpec& spec);

/// Trend rows as CSV
/// ("unit,scheduler,faults,engine,metric,n,count,mean,p50,p90,p99,max").
[[nodiscard]] std::string trend_csv(const campaign::CampaignHeader& header,
                                    const std::vector<PointDistributions>& dists,
                                    const ReportSpec& spec);

/// Trend rows as the netcons-trend-v1 JSON document.
[[nodiscard]] std::string trend_json(const campaign::CampaignHeader& header,
                                     const std::vector<PointDistributions>& dists,
                                     const ReportSpec& spec);

/// One matched pair of grid points: indices into record sets A and B.
struct ComparePair {
  std::size_t a = 0;
  std::size_t b = 0;
};

/// The pairs `netcons_report --compare A B` compares, A-major with B in
/// grid order. An A point pairs with the B points of the same unit,
/// scheduler, n and fault plan; when B holds none with that plan, it pairs
/// with every B point of the same unit, scheduler and n instead (one
/// fault-free baseline against every plan). Record sets that each hold
/// several plans are thus compared plan by plan, never plan against plan.
[[nodiscard]] std::vector<ComparePair> compare_pairs(const std::vector<campaign::GridPoint>& a,
                                                     const std::vector<campaign::GridPoint>& b);

/// Fit mean convergence steps ~ C * n^alpha over a campaign's points;
/// points with no successful trial are skipped.
[[nodiscard]] LinearFit fit_exponent(const std::vector<campaign::PointResult>& points);

}  // namespace netcons::analysis
