// Deterministic mutation fuzzing of the fault-plan grammar
// (faults::parse_fault_plan), the parser behind --faults and every
// campaign request's "faults" list. The corpus is the plan specs the tests,
// benches and CI use; mutations draw from a fixed SplitMix64 stream, so
// every run replays the same ~10^4 inputs and a failure reproduces from
// its iteration number alone.
//
// Properties: every input either parses or throws std::invalid_argument
// (any other exception type, or a crash, fails the test); a parsed plan
// has events whose values lie inside the grammar's ranges; and parsing a
// plan's name again gives the same events.
#include "faults/fault_plan.hpp"

#include "mutator.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace netcons::faults {
namespace {

/// Specs from the fault tests, bench_fault_recovery, the CI fault legs
/// and the README.
const std::vector<std::string>& corpus() {
  static const std::vector<std::string> specs = {
      "none",
      "crash:k=1",
      "crash:k=2",
      "crash:k=3",
      "crash:k=1:at=5000",
      "crash:k=1:target=max-degree",
      "crash:k=1:target=leader",
      "crash:k=3:target=leader",
      "crash:k=2:target=max-degree",
      "crash:k=1:at=500:every=700:times=3",
      "edge-burst:f=0.1",
      "edge-burst:f=0.2",
      "edge-burst:f=0.5",
      "edge-burst:f=1:at=1000",
      "edge-burst:f=0.05:at=100:every=1000:times=5",
      "edge-burst:f=0.1:at=200:every=400:times=3",
      "edge-burst:f=0.1:at=5000:every=200000:times=5",
      "edge-rate:p=1e-4",
      "edge-rate:p=1e-3:for=2000",
      "edge-rate:p=0.05:for=2000",
      "edge-rate:p=1e-4:for=5000",
      "reset:k=1",
      "reset:k=3:every=100:times=4",
      "crash:k=1+edge-burst:f=0.2",
      "crash:k=1+edge-rate:p=1e-3:at=50:for=400",
  };
  return specs;
}

/// Grammar and numeric edge-case tokens the mutator inserts.
const std::vector<std::string>& tokens() {
  static const std::vector<std::string> list = {
      ":", "+", "=", "k=", "f=", "p=", "at=", "every=", "times=", "for=", "target=",
      "crash", "edge-burst", "edge-rate", "reset", "none", "leader", "max-degree", "random",
      "0", "1", "-1", "0.5", "1e-4", "1e308", "1e-400", "inf", "nan", "0x10", "2147483648",
      "9007199254740993", "18446744073709551616", " ", std::string(1, '\0')};
  return list;
}

/// The grammar's value ranges, for a plan that parsed.
void expect_in_range(const FaultPlan& plan) {
  for (const FaultEvent& event : plan.events) {
    EXPECT_GE(event.count, 1);
    EXPECT_GT(event.fraction, 0.0);
    EXPECT_LE(event.fraction, 1.0);
    EXPECT_GT(event.rate, 0.0);
    EXPECT_LT(event.rate, 1.0);
    EXPECT_GE(event.times, 1);
    EXPECT_TRUE(event.times == 1 || event.every > 0);
  }
}

/// Parses `spec` or returns nullopt on std::invalid_argument (any other
/// exception escapes and fails the test).
std::optional<FaultPlan> try_parse(const std::string& spec) {
  try {
    return parse_fault_plan(spec);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

TEST(FuzzFaultPlan, CorpusParsesAndRoundTrips) {
  for (const std::string& spec : corpus()) {
    const std::optional<FaultPlan> plan = try_parse(spec);
    ASSERT_TRUE(plan.has_value()) << spec;
    expect_in_range(*plan);
    EXPECT_EQ(parse_fault_plan(plan->name).events, plan->events) << spec;
  }
}

TEST(FuzzFaultPlan, TenThousandMutationsParseOrThrowInvalidArgument) {
  fuzz::Mutator random(0x6661756c74706c61ULL, tokens(), corpus());
  int rejected = 0;
  for (int iteration = 0; iteration < 10000; ++iteration) {
    const std::string input = random.mutate(corpus()[random.below(corpus().size())]);
    SCOPED_TRACE("iteration " + std::to_string(iteration) + ": '" + input + "'");
    const std::optional<FaultPlan> plan = try_parse(input);
    if (!plan) {
      ++rejected;
      continue;
    }
    expect_in_range(*plan);
    EXPECT_EQ(parse_fault_plan(plan->name).events, plan->events);
  }
  // The mutations reach both outcomes, so the properties are not vacuous.
  EXPECT_GT(rejected, 1000);
  EXPECT_LT(rejected, 9900);
}

TEST(FuzzFaultPlan, OutOfRangeCountsAreRejectedNotWrapped) {
  // Counts past what the event fields hold (or, for step counts, past
  // 2^53, where doubles stop holding every integer) would silently become a
  // different experiment; k=inf used to reach an undefined cast.
  for (const char* spec :
       {"crash:k=2147483648", "crash:k=inf", "reset:k=1e308", "crash:k=1:at=inf",
        "edge-burst:f=0.1:at=1e300", "edge-rate:p=0.1:for=9007199254740992",
        "crash:k=1:every=2:times=2147483648"}) {
    EXPECT_THROW((void)parse_fault_plan(spec), std::invalid_argument) << spec;
  }
  EXPECT_EQ(parse_fault_plan("crash:k=2147483647").events[0].count, INT_MAX);
  EXPECT_EQ(parse_fault_plan("crash:k=1:at=9007199254740991").events[0].at,
            (std::uint64_t{1} << 53) - 1);
}

}  // namespace
}  // namespace netcons::faults
