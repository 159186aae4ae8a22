// Deterministic seed derivation for campaign grids.
//
// The engine's determinism contract — bit-identical aggregates regardless of
// thread count, dispatch order, or OS scheduling — requires that the seed of
// every trial be a pure function of (campaign seed, point index, trial
// index). Both levels are random-access SplitMix64 streams: element i of the
// stream with state `base` is finalize(base + (i+1) * gamma), i.e. exactly
// the (i+1)-th output of a sequential splitmix64 generator started at
// `base`. Nearby bases and indices therefore yield statistically unrelated
// streams (unlike arithmetic on the base seed, which correlates them).
#pragma once

#include "util/rng.hpp"

#include <cstdint>

namespace netcons::campaign {

/// Element `index` of the SplitMix64 stream with initial state `base`
/// (same derivation as `trial_seed`, re-exported under the stream name the
/// campaign layer speaks).
[[nodiscard]] constexpr std::uint64_t stream_seed(std::uint64_t base,
                                                  std::uint64_t index) noexcept {
  return trial_seed(base, index);
}

/// Random-access view of one stream (the engine walks points and trials by
/// index; there is deliberately no mutable cursor to keep replay trivial).
class SeedStream {
 public:
  explicit constexpr SeedStream(std::uint64_t base) noexcept : base_(base) {}

  [[nodiscard]] constexpr std::uint64_t at(std::uint64_t index) const noexcept {
    return stream_seed(base_, index);
  }

  /// Sub-stream rooted at element `index` (hierarchical derivation:
  /// campaign stream -> per-point streams -> per-trial seeds).
  [[nodiscard]] constexpr SeedStream child(std::uint64_t index) const noexcept {
    return SeedStream(at(index));
  }

 private:
  std::uint64_t base_;
};

/// Seed of grid point `point_index` within a campaign.
[[nodiscard]] constexpr std::uint64_t point_seed(std::uint64_t campaign_seed,
                                                 std::uint64_t point_index) noexcept {
  return stream_seed(campaign_seed, point_index);
}

static_assert(SeedStream(7).at(3) == stream_seed(7, 3));
static_assert(stream_seed(1, 0) != stream_seed(1, 1));
static_assert(stream_seed(1, 0) != stream_seed(2, 0));

}  // namespace netcons::campaign
