// Deterministic mutation fuzzing of the scheduler-spec grammar
// (campaign::make_scheduler), the parser behind --schedulers and every
// campaign request's "schedulers" list. The corpus is the specs the tests,
// CI and README use, plus numeric edge cases; mutations draw from a fixed
// SplitMix64 stream, so every run replays the same ~10^4 inputs and a
// failure reproduces from its iteration number alone.
//
// Properties: make_scheduler never throws; a rejected spec comes with a
// non-empty error; a parsed option's name parses again to the same name;
// and a parsed proximity option builds a weight model at n = 16 whose
// weights are finite with 0 < min_weight() <= max_weight().
#include "campaign/registry.hpp"

#include "core/scheduler.hpp"
#include "mutator.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace netcons::campaign {
namespace {

/// Specs from the scheduler tests, the CI scheduler legs and the README,
/// and the numeric edge cases of the proximity grammar.
const std::vector<std::string>& corpus() {
  static const std::vector<std::string> specs = {
      "uniform",
      "permutation",
      "stale-biased",
      "stale-biased:bias=0.05",
      "stale-biased:bias=0.5",
      "proximity",
      "proximity:r=0.25",
      "proximity:r=0.3",
      "proximity:alpha=2:r=0.3",
      "proximity:alpha=2:r=0.1:layout=uniform",
      "proximity:alpha=2:r=0.3:layout=clustered",
      "proximity:alpha=1.5:r=0.1:layout=grid",
      "proximity:layout=grid:alpha=1.5",
      "proximity:r=1",
      "proximity:r=1e-10",
      "proximity:r=1e-300",
      "proximity:alpha=inf",
      "proximity:alpha=nan",
  };
  return specs;
}

/// Grammar and numeric edge-case tokens the mutator inserts.
const std::vector<std::string>& tokens() {
  static const std::vector<std::string> list = {
      ":", "=", ",", "alpha=", "r=", "layout=", "bias=", "uniform", "clustered", "grid",
      "proximity", "stale-biased", "permutation", "0", "1", "-1", "0.5", "1e-10", "1e-300",
      "1e-320", "1e308", "1e400", "inf", "-inf", "nan", "0x10", "2147483648", " ",
      std::string(1, '\0')};
  return list;
}

/// Checks every property on one input; returns whether it parsed.
bool check(const std::string& spec) {
  std::string error;
  std::optional<SchedulerOption> option;
  EXPECT_NO_THROW(option = make_scheduler(spec, &error));
  if (!option) {
    EXPECT_FALSE(error.empty());
    return false;
  }
  EXPECT_EQ(option->name.find('\0'), std::string::npos);
  const std::optional<SchedulerOption> again = make_scheduler(option->name);
  EXPECT_TRUE(again.has_value());
  if (again) {
    EXPECT_EQ(again->name, option->name);
  }
  if (option->name.rfind("proximity", 0) == 0) {
    const std::unique_ptr<Scheduler> scheduler = option->make();
    Rng rng(16);
    const SchedulerWeightModel* model = scheduler->weight_model(rng, 16);
    EXPECT_NE(model, nullptr);
    if (model != nullptr) {
      EXPECT_TRUE(std::isfinite(model->min_weight()));
      EXPECT_TRUE(std::isfinite(model->max_weight()));
      EXPECT_GT(model->min_weight(), 0.0);
      EXPECT_LE(model->min_weight(), model->max_weight());
    }
  }
  return true;
}

TEST(FuzzSchedulerSpec, CorpusHoldsEveryProperty) {
  int parsed = 0;
  for (const std::string& spec : corpus()) {
    SCOPED_TRACE("'" + spec + "'");
    if (check(spec)) ++parsed;
  }
  EXPECT_EQ(parsed, static_cast<int>(corpus().size()) - 2);  // all but alpha=inf, alpha=nan
}

TEST(FuzzSchedulerSpec, TenThousandMutationsHoldEveryProperty) {
  fuzz::Mutator random(0x7363686564756c65ULL, tokens(), corpus());
  int rejected = 0;
  for (int iteration = 0; iteration < 10000; ++iteration) {
    const std::string input = random.mutate(corpus()[random.below(corpus().size())]);
    SCOPED_TRACE("iteration " + std::to_string(iteration) + ": '" + input + "'");
    if (!check(input)) ++rejected;
  }
  // The mutations reach both outcomes, so the properties are not vacuous.
  EXPECT_GT(rejected, 1000);
  EXPECT_LT(rejected, 9900);
}

TEST(FuzzSchedulerSpec, MalformedNumbersAndUnknownNamesAreRejectedWithAReason) {
  // A value must be a finite decimal number ending where its token ends:
  // "r=0.5\0junk" or "r= 0.5" would carry their junk into the point name,
  // and alpha=inf would build a uniform model under a proximity name. Every
  // rejection, an unknown name included, must say why.
  for (const std::string& spec :
       {std::string("proximity:r=0.5\0junk", 21), std::string("stale-biased:bias=0.5\0x", 23),
        std::string("proximity:alpha=inf"), std::string("proximity:alpha=nan"),
        std::string("proximity:alpha=0x10"), std::string("proximity:r= 0.5"),
        std::string("uniformx"), std::string("")}) {
    std::string error;
    EXPECT_FALSE(make_scheduler(spec, &error).has_value()) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

}  // namespace
}  // namespace netcons::campaign
