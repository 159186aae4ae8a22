// Saturating uint64 arithmetic for n-dependent step budgets. A budget that
// would wrap clamps to UINT64_MAX -- "unbounded": quiescence or the
// protocol's certificate ends the run -- so a budget never shrinks as n
// grows (64 n^5 exceeds 2^64 from n = 3105).
#pragma once

#include <cstdint>
#include <limits>

namespace netcons {

[[nodiscard]] constexpr std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t product = 0;
  return __builtin_mul_overflow(a, b, &product) ? std::numeric_limits<std::uint64_t>::max()
                                                : product;
}

[[nodiscard]] constexpr std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t sum = 0;
  return __builtin_add_overflow(a, b, &sum) ? std::numeric_limits<std::uint64_t>::max() : sum;
}

/// coefficient * n^power + headroom, saturated: the shape of every
/// ProtocolSpec::max_steps formula.
[[nodiscard]] constexpr std::uint64_t step_budget(std::uint64_t coefficient, int n, int power,
                                                  std::uint64_t headroom) noexcept {
  std::uint64_t budget = coefficient;
  for (int i = 0; i < power; ++i) budget = saturating_mul(budget, static_cast<std::uint64_t>(n));
  return saturating_add(budget, headroom);
}

}  // namespace netcons
