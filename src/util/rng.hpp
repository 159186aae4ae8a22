// Deterministic, seedable random number generation.
//
// Every stochastic component of the library draws from an explicitly passed
// `Rng`; there is no global random state. Reproducing any run therefore only
// requires its 64-bit seed. Independent streams (e.g. the trials of a sweep)
// are derived with `split`, which uses splitmix64 so that nearby seeds give
// statistically unrelated streams.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace netcons {

/// splitmix64 step: the standard 64-bit finalizer-based generator.
/// Used both for seeding and for deriving independent sub-streams.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** generator (Blackman & Vigna). Fast, 256-bit state, passes
/// BigCrush; more than adequate for the scheduler's pair sampling.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    // Expand the 64-bit seed into 256 bits of state via splitmix64,
    // guaranteeing a nonzero state.
    for (auto& word : state_) word = splitmix64(seed);
  }

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Lemire's multiply-shift with rejection;
  /// exact (unbiased) for any bound >= 1.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept {
    // Fast path covers every bound used in practice (bound <= 2^63).
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Fair coin.
  [[nodiscard]] bool coin() noexcept { return ((*this)() >> 63) != 0; }

  /// Bernoulli(p).
  [[nodiscard]] bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Uniform double in [0, 1) with 53 bits of precision.
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Failures before the first success of Bernoulli(p) trials, by one
  /// inverse-CDF draw: floor(ln U / ln(1 - p)), U in (0, 1]. 0 when p >= 1;
  /// saturates at 2^63 - 1 for p so small the draw overflows.
  [[nodiscard]] std::uint64_t geometric_failures(double p) noexcept {
    if (p >= 1.0) return 0;
    const double u = 1.0 - uniform();
    const double g = std::log(u) / std::log1p(-p);
    if (!(g >= 0.0)) return 0;
    if (g >= 9.0e18) return std::numeric_limits<std::uint64_t>::max() / 2;
    return static_cast<std::uint64_t>(g);
  }

  /// Derive an independent sub-stream seed (e.g. one per trial of a sweep).
  [[nodiscard]] std::uint64_t split() noexcept {
    std::uint64_t s = (*this)();
    return splitmix64(s);
  }

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

/// Derive the seed for trial `trial` of an experiment with base seed `base`:
/// element `trial` of the SplitMix64 stream whose initial state is `base`
/// (i.e. finalize(base + (trial+1) * gamma), exactly what a sequential
/// splitmix64 generator started at `base` would emit). A pure function of
/// (base, trial), so sweeps can be sharded across threads, resumed, or
/// replayed trial-by-trial; and a genuine SplitMix64 stream, so the streams
/// of nearby trials are statistically unrelated (the previous XOR-mixing
/// construction correlated them through shared high bits).
[[nodiscard]] constexpr std::uint64_t trial_seed(std::uint64_t base, std::uint64_t trial) noexcept {
  std::uint64_t s = base + trial * 0x9e3779b97f4a7c15ULL;
  return splitmix64(s);
}

}  // namespace netcons
