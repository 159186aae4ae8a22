// Deterministic mutation fuzzing of telemetry::parse_heartbeat_line, the
// parser netcons_top and the serve scheduler run on every line they tail
// from a live heartbeat stream. The corpus is what a CampaignMonitor
// actually writes (captured from an std::ostringstream); mutations draw
// from a fixed SplitMix64 stream, so every run replays the same ~10^4
// inputs and a failure reproduces from its iteration number alone.
//
// Properties: every emitted line parses back to the monitor's trials_done,
// trials_total and workers; every strict prefix of one (a torn tail) is
// rejected; and no mutation throws or crashes the parser.
#include "telemetry/heartbeat.hpp"

#include "mutator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace netcons::telemetry {
namespace {

struct Emitted {
  std::string line;
  std::uint64_t trials_done = 0;
  std::uint64_t trials_total = 0;
  std::uint64_t workers = 0;
};

/// Heartbeat lines from monitors over a spread of campaign shapes, each
/// with the monitor's state at the moment it was written.
const std::vector<Emitted>& corpus() {
  static const std::vector<Emitted> lines = [] {
    struct Shape {
      std::uint64_t total;
      int workers;
      std::vector<std::uint64_t> jobs;
    };
    const std::vector<Shape> shapes = {
        {0, 1, {}},
        {100, 2, {40}},
        {20, 4, {1, 1, 1, 17}},
        {1'000'000, 8, {999'999, 1}},
        {std::uint64_t{1} << 62, 64, {std::uint64_t{1} << 40}},
    };
    std::vector<Emitted> out;
    for (const Shape& shape : shapes) {
      std::ostringstream stream;
      CampaignMonitor::Options options;
      options.period_seconds = 0.0;  // no ticker: every line is emitted here
      options.heartbeat = &stream;
      CampaignMonitor monitor(options);
      std::vector<std::uint64_t> done_at_line = {0};
      monitor.begin(shape.total, shape.workers);
      for (const std::uint64_t job : shape.jobs) {
        monitor.record_job(job, 1e-3);
        monitor.emit_now();
        done_at_line.push_back(monitor.trials_done());
      }
      monitor.end();
      done_at_line.push_back(monitor.trials_done());

      std::istringstream lines(stream.str());
      std::string line;
      for (const std::uint64_t done : done_at_line) {
        std::getline(lines, line);
        out.push_back({line, done, shape.total, static_cast<std::uint64_t>(shape.workers)});
      }
      EXPECT_FALSE(std::getline(lines, line)) << "more lines than emissions";
    }
    return out;
  }();
  return lines;
}

/// JSON structure and numeric edge-case tokens the mutator inserts.
const std::vector<std::string>& tokens() {
  static const std::vector<std::string> list = {
      "{", "}", "[", "]", "\"", ",", ":", "\\", "\\u0000", "\\ud800", "null", "true",
      "\"final\"", "\"heartbeat\"", "\"netcons-heartbeat-v1\"", "0", "-1", "-0", "1e400",
      "1e-400", "nan", "Infinity", "18446744073709551615", "18446744073709551616", "0.5",
      " ", std::string(1, '\0'), std::string(2000, '['), std::string(64, '9')};
  return list;
}

TEST(FuzzHeartbeat, EmittedLinesParseBackToTheMonitorState) {
  ASSERT_EQ(corpus().size(), 18u);
  for (const Emitted& emitted : corpus()) {
    SCOPED_TRACE(emitted.line);
    const std::optional<HeartbeatPoint> point = parse_heartbeat_line(emitted.line);
    ASSERT_TRUE(point.has_value());
    EXPECT_EQ(point->trials_done, emitted.trials_done);
    EXPECT_EQ(point->trials_total, emitted.trials_total);
    EXPECT_EQ(point->workers, emitted.workers);
    EXPECT_EQ(point->utilization.size(), emitted.workers);
  }
}

TEST(FuzzHeartbeat, TornTailsAreRejected) {
  for (const Emitted& emitted : corpus()) {
    for (std::size_t cut = 0; cut < emitted.line.size(); ++cut) {
      EXPECT_FALSE(parse_heartbeat_line(emitted.line.substr(0, cut)).has_value())
          << emitted.line.substr(0, cut);
    }
  }
}

TEST(FuzzHeartbeat, TenThousandMutationsNeverThrow) {
  std::vector<std::string> lines;
  for (const Emitted& emitted : corpus()) lines.push_back(emitted.line);
  fuzz::Mutator random(0x6865617274626561ULL, tokens(), lines);
  int rejected = 0;
  for (int iteration = 0; iteration < 10000; ++iteration) {
    const std::string input = random.mutate(lines[random.below(lines.size())]);
    SCOPED_TRACE("iteration " + std::to_string(iteration));
    std::optional<HeartbeatPoint> point;
    EXPECT_NO_THROW(point = parse_heartbeat_line(input));
    if (!point) ++rejected;
  }
  // The mutations reach both outcomes, so the properties are not vacuous.
  EXPECT_GT(rejected, 1000);
  EXPECT_LT(rejected, 9900);
}

}  // namespace
}  // namespace netcons::telemetry
