#include "analysis/report.hpp"

#include "campaign/json.hpp"
#include "campaign/result_sink.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

namespace netcons::analysis {

namespace {

void append_metric_json(std::string& out, Metric metric, const ValueDistribution& dist,
                        int bins) {
  out += "{\"metric\": ";
  campaign::json::append_escaped(out, std::string(metric_name(metric)));
  out += ", \"count\": " + std::to_string(dist.count());
  out += ", \"min\": " + std::to_string(dist.min());
  out += ", \"max\": " + std::to_string(dist.max());
  out += ", \"mean\": ";
  campaign::json::append_double(out, dist.mean());
  out += ", \"stddev\": ";
  campaign::json::append_double(out, dist.stddev());
  for (const auto& [name, p] :
       {std::pair{"p50", 0.50}, std::pair{"p90", 0.90}, std::pair{"p99", 0.99}}) {
    out += ", \"";
    out += name;
    out += "\": ";
    campaign::json::append_double(out, dist.quantile(p));
  }
  const Histogram h = histogram(dist, bins);
  out += ", \"histogram\": {\"bins\": ";
  out += std::to_string(h.bins());
  out += ", \"lo\": ";
  campaign::json::append_double(out, h.lo);
  out += ", \"width\": ";
  campaign::json::append_double(out, h.width);
  out += ", \"counts\": [";
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(h.counts[i]);
  }
  out += "]}";
  out += ", \"ecdf\": [";
  bool first = true;
  for (const EcdfPoint& point : ecdf(dist)) {
    if (!first) out += ", ";
    first = false;
    out += "[" + std::to_string(point.value) + ", " + std::to_string(point.cumulative) + "]";
  }
  out += "]}";
}

void append_point_prefix(std::string& out, const campaign::GridPoint& point, Metric metric) {
  out += campaign::csv_field(point.unit) + ',' + campaign::csv_field(point.scheduler) + ',' +
         campaign::csv_field(point.faults) + ',' + campaign::csv_field(point.engine) + ',' +
         std::to_string(point.n) + ',';
  out += metric_name(metric);
}

/// Same trend series: everything but n (and the metric, handled separately).
bool same_series(const campaign::GridPoint& a, const campaign::GridPoint& b) {
  return a.unit == b.unit && a.scheduler == b.scheduler && a.faults == b.faults &&
         a.engine == b.engine;
}

}  // namespace

ReportSpec default_report_spec() {
  ReportSpec spec;
  spec.metrics.assign(all_metrics().begin(), all_metrics().end());
  return spec;
}

RecordDistributionBuilder load_distributions(const std::vector<std::string>& inputs) {
  campaign::TrialRecordReader reader(inputs);
  std::optional<RecordDistributionBuilder> builder;
  while (const auto record = reader.next()) {
    if (!builder) builder.emplace(*reader.header());
    builder->add(*record);
  }
  if (!builder) {
    if (!reader.header()) throw std::runtime_error("no trial records found in the given inputs");
    builder.emplace(*reader.header());
  }
  return std::move(*builder);
}

bool metric_applicable(Metric metric, bool faulted) {
  return faulted || (metric != Metric::kRecoverySteps && metric != Metric::kEdgesResidual);
}

std::string report_json(const RecordDistributionBuilder& builder,
                        const std::vector<PointDistributions>& dists, const ReportSpec& spec) {
  const campaign::CampaignHeader& header = builder.header();
  std::string out = "{\n  \"schema\": \"netcons-report-v1\",\n";
  out += "  \"base_seed\": " + std::to_string(header.base_seed) + ",\n";
  out += "  \"trials\": " + std::to_string(header.trials) + ",\n";
  out += "  \"trials_recorded\": " + std::to_string(builder.filled()) + ",\n";
  out += "  \"binning\": ";
  campaign::json::append_escaped(
      out, spec.bins <= 0 ? std::string("fd") : "fixed:" + std::to_string(spec.bins));
  out += ",\n  \"points\": [\n";
  for (std::size_t p = 0; p < header.points.size(); ++p) {
    const campaign::GridPoint& point = header.points[p];
    out += "    {\"unit\": ";
    campaign::json::append_escaped(out, point.unit);
    out += ", \"scheduler\": ";
    campaign::json::append_escaped(out, point.scheduler);
    out += ", \"faults\": ";
    campaign::json::append_escaped(out, point.faults);
    out += ", \"engine\": ";
    campaign::json::append_escaped(out, point.engine);
    out += ", \"n\": " + std::to_string(point.n);
    out += ", \"seed\": " + std::to_string(point.seed);
    out += ",\n     \"metrics\": [\n";
    bool first = true;
    for (const Metric metric : spec.metrics) {
      if (!metric_applicable(metric, point.faulted)) continue;
      if (!first) out += ",\n";
      first = false;
      out += "      ";
      append_metric_json(out, metric, dists[p].metric(metric), spec.bins);
    }
    out += "\n     ]}";
    out += (p + 1 < header.points.size()) ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string histogram_csv(const campaign::CampaignHeader& header,
                          const std::vector<PointDistributions>& dists,
                          const ReportSpec& spec) {
  std::string out = "unit,scheduler,faults,engine,n,metric,bin,lo,hi,count\n";
  for (std::size_t p = 0; p < header.points.size(); ++p) {
    for (const Metric metric : spec.metrics) {
      if (!metric_applicable(metric, header.points[p].faulted)) continue;
      const Histogram h = histogram(dists[p].metric(metric), spec.bins);
      for (std::size_t bin = 0; bin < h.counts.size(); ++bin) {
        append_point_prefix(out, header.points[p], metric);
        out += ',' + std::to_string(bin) + ',';
        campaign::json::append_double(out, h.edge(bin));
        out += ',';
        campaign::json::append_double(out, h.edge(bin + 1));
        out += ',' + std::to_string(h.counts[bin]) + '\n';
      }
    }
  }
  return out;
}

std::vector<TrendRow> trend_rows(const campaign::CampaignHeader& header,
                                 const ReportSpec& spec) {
  // Series in first-appearance order over the header's points; within a
  // series, points sorted by n ascending (stably, so equal-n duplicates
  // keep header order). Pure function of the grid -- byte-stable.
  std::vector<std::vector<std::size_t>> series;
  for (std::size_t p = 0; p < header.points.size(); ++p) {
    bool placed = false;
    for (auto& members : series) {
      if (same_series(header.points[members.front()], header.points[p])) {
        members.push_back(p);
        placed = true;
        break;
      }
    }
    if (!placed) series.push_back({p});
  }
  std::vector<TrendRow> rows;
  for (auto& members : series) {
    std::stable_sort(members.begin(), members.end(), [&](std::size_t a, std::size_t b) {
      return header.points[a].n < header.points[b].n;
    });
    for (const Metric metric : spec.metrics) {
      if (!metric_applicable(metric, header.points[members.front()].faulted)) continue;
      for (const std::size_t p : members) rows.push_back({p, metric});
    }
  }
  return rows;
}

std::string trend_csv(const campaign::CampaignHeader& header,
                      const std::vector<PointDistributions>& dists, const ReportSpec& spec) {
  std::string out = "unit,scheduler,faults,engine,metric,n,count,mean,p50,p90,p99,max\n";
  for (const TrendRow& row : trend_rows(header, spec)) {
    const campaign::GridPoint& point = header.points[row.point];
    const ValueDistribution& dist = dists[row.point].metric(row.metric);
    out += campaign::csv_field(point.unit) + ',' + campaign::csv_field(point.scheduler) + ',' +
           campaign::csv_field(point.faults) + ',' + campaign::csv_field(point.engine) + ',';
    out += metric_name(row.metric);
    out += ',' + std::to_string(point.n) + ',' + std::to_string(dist.count()) + ',';
    campaign::json::append_double(out, dist.mean());
    for (const double p : {0.50, 0.90, 0.99}) {
      out += ',';
      campaign::json::append_double(out, dist.quantile(p));
    }
    out += ',' + std::to_string(dist.max()) + '\n';
  }
  return out;
}

std::string trend_json(const campaign::CampaignHeader& header,
                       const std::vector<PointDistributions>& dists, const ReportSpec& spec) {
  const std::vector<TrendRow> rows = trend_rows(header, spec);
  std::string out = "{\n  \"schema\": \"netcons-trend-v1\",\n  \"series\": [\n";
  bool open = false;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const campaign::GridPoint& point = header.points[rows[i].point];
    const bool fresh = i == 0 || rows[i - 1].metric != rows[i].metric ||
                       !same_series(header.points[rows[i - 1].point], point);
    if (fresh) {
      if (open) out += "\n    ]},\n";
      open = true;
      out += "    {\"unit\": ";
      campaign::json::append_escaped(out, point.unit);
      out += ", \"scheduler\": ";
      campaign::json::append_escaped(out, point.scheduler);
      out += ", \"faults\": ";
      campaign::json::append_escaped(out, point.faults);
      out += ", \"engine\": ";
      campaign::json::append_escaped(out, point.engine);
      out += ", \"metric\": ";
      campaign::json::append_escaped(out, std::string(metric_name(rows[i].metric)));
      out += ",\n     \"rows\": [\n";
    } else {
      out += ",\n";
    }
    const ValueDistribution& dist = dists[rows[i].point].metric(rows[i].metric);
    out += "      {\"n\": " + std::to_string(point.n);
    out += ", \"count\": " + std::to_string(dist.count());
    out += ", \"mean\": ";
    campaign::json::append_double(out, dist.mean());
    for (const auto& [name, p] :
         {std::pair{"p50", 0.50}, std::pair{"p90", 0.90}, std::pair{"p99", 0.99}}) {
      out += ", \"";
      out += name;
      out += "\": ";
      campaign::json::append_double(out, dist.quantile(p));
    }
    out += ", \"max\": " + std::to_string(dist.max()) + "}";
  }
  if (open) out += "\n    ]}\n";
  out += "  ]\n}\n";
  return out;
}

std::string ecdf_csv(const campaign::CampaignHeader& header,
                     const std::vector<PointDistributions>& dists, const ReportSpec& spec) {
  std::string out = "unit,scheduler,faults,engine,n,metric,value,cumulative,fraction\n";
  for (std::size_t p = 0; p < header.points.size(); ++p) {
    for (const Metric metric : spec.metrics) {
      if (!metric_applicable(metric, header.points[p].faulted)) continue;
      for (const EcdfPoint& point : ecdf(dists[p].metric(metric))) {
        append_point_prefix(out, header.points[p], metric);
        out += ',' + std::to_string(point.value) + ',' + std::to_string(point.cumulative) + ',';
        campaign::json::append_double(out, point.fraction);
        out += '\n';
      }
    }
  }
  return out;
}

std::vector<ComparePair> compare_pairs(const std::vector<campaign::GridPoint>& a,
                                       const std::vector<campaign::GridPoint>& b) {
  const auto same_cell = [](const campaign::GridPoint& x, const campaign::GridPoint& y) {
    return x.unit == y.unit && x.scheduler == y.scheduler && x.n == y.n;
  };
  std::vector<ComparePair> pairs;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool plan_in_b = std::any_of(b.begin(), b.end(), [&](const campaign::GridPoint& y) {
      return same_cell(a[i], y) && a[i].faults == y.faults;
    });
    for (std::size_t j = 0; j < b.size(); ++j) {
      if (same_cell(a[i], b[j]) && (!plan_in_b || a[i].faults == b[j].faults)) {
        pairs.push_back({i, j});
      }
    }
  }
  return pairs;
}

LinearFit fit_exponent(const std::vector<campaign::PointResult>& points) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (const campaign::PointResult& p : points) {
    if (p.convergence_steps.count() == 0) continue;
    xs.push_back(static_cast<double>(p.n));
    ys.push_back(p.convergence_steps.mean());
  }
  return fit_power_law(xs, ys);
}

}  // namespace netcons::analysis
