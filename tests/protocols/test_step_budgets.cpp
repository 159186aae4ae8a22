// Every protocol's step budget is computed with saturating arithmetic, so
// it never shrinks as n grows: computed mod 2^64, Simple-Global-Line's
// 64 n^5 + 10^6 is exactly 10^6 at n = 4096.
#include "campaign/registry.hpp"
#include "protocols/protocols.hpp"
#include "util/saturating.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace netcons {
namespace {

constexpr std::uint64_t kSaturated = std::numeric_limits<std::uint64_t>::max();

TEST(StepBudgets, SaturatingArithmetic) {
  EXPECT_EQ(saturating_mul(1ULL << 32, 1ULL << 31), 1ULL << 63);
  EXPECT_EQ(saturating_mul(1ULL << 32, 1ULL << 32), kSaturated);
  EXPECT_EQ(saturating_add(kSaturated - 1, 1), kSaturated);
  EXPECT_EQ(saturating_add(kSaturated, 1), kSaturated);
  EXPECT_EQ(step_budget(64, 10, 5, 1'000'000), 64ULL * 100'000 + 1'000'000);
  EXPECT_EQ(step_budget(64, 4096, 5, 1'000'000), kSaturated);
}

TEST(StepBudgets, NonDecreasingInNForEveryProtocol) {
  std::vector<std::pair<std::string, ProtocolSpec>> specs;
  for (const std::string& name : campaign::protocol_names()) {
    specs.emplace_back(name, *campaign::make_protocol(name));
  }
  specs.emplace_back("replication", protocols::replication(Graph::ring(3)));
  for (const auto& [name, spec] : specs) {
    if (!spec.max_steps) continue;
    std::uint64_t previous = spec.max_steps(2);
    for (int n = 3; n <= (1 << 20); ++n) {
      const std::uint64_t budget = spec.max_steps(n);
      ASSERT_GE(budget, previous) << name << " budget shrinks at n = " << n;
      if (name == "simple-global-line") {  // Theorem 3: Omega(n^4) steps.
        ASSERT_GE(budget, step_budget(1, n, 4, 0)) << "below the paper's bound at n = " << n;
      }
      previous = budget;
    }
  }
}

TEST(StepBudgets, SimpleGlobalLineSaturatesInsteadOfWrapping) {
  const ProtocolSpec sgl = protocols::simple_global_line();
  EXPECT_EQ(sgl.max_steps(4096), kSaturated);
  EXPECT_EQ(sgl.max_steps(3104), 64ULL * 3104 * 3104 * 3104 * 3104 * 3104 + 1'000'000);
}

}  // namespace
}  // namespace netcons
