// The byte-level mutator of the grammar fuzz tests (fault plans, scheduler
// specs, heartbeat lines). It draws from one SplitMix64 stream, so every
// run replays the same inputs and a failure reproduces from its iteration
// number alone.
#pragma once

#include "util/rng.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace netcons::fuzz {

class Mutator {
 public:
  /// `tokens` (grammar and numeric edge cases to insert) and `corpus`
  /// (sources of splices) must outlive the mutator.
  Mutator(std::uint64_t seed, const std::vector<std::string>& tokens,
          const std::vector<std::string>& corpus)
      : state_(seed), tokens_(tokens), corpus_(corpus) {}

  std::uint64_t below(std::uint64_t bound) { return bound == 0 ? 0 : splitmix64(state_) % bound; }

  /// One to four stacked mutations of `input`.
  std::string mutate(std::string input) {
    const int rounds = 1 + static_cast<int>(below(4));
    for (int round = 0; round < rounds; ++round) {
      const std::size_t at = below(input.size() + 1);
      switch (below(6)) {
        case 0:  // Flip one bit.
          if (!input.empty()) input[at % input.size()] ^= static_cast<char>(1u << below(8));
          break;
        case 1:  // Delete a range.
          input.erase(at, below(8) + 1);
          break;
        case 2:  // Duplicate a range.
          input.insert(at, input.substr(at, below(16) + 1));
          break;
        case 3:  // Insert a token.
          input.insert(at, tokens_[below(tokens_.size())]);
          break;
        case 4: {  // Splice in part of another corpus entry.
          const std::string& other = corpus_[below(corpus_.size())];
          const std::size_t from = below(other.size() + 1);
          input.insert(at, other.substr(from, below(24) + 1));
          break;
        }
        default:  // Truncate.
          input.resize(at);
          break;
      }
    }
    return input;
  }

 private:
  std::uint64_t state_;
  const std::vector<std::string>& tokens_;
  const std::vector<std::string>& corpus_;
};

}  // namespace netcons::fuzz
