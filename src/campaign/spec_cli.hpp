// Shared campaign-spec CLI vocabulary: every surface that declares a
// campaign grid (netcons_campaign, netcons_worker, and the netcons_serve
// submission document) parses the same --protocols/--processes/--ns/...
// vocabulary through this one implementation. That sameness is
// load-bearing for the fabric: the daemon and its workers independently
// build CampaignSpec, and the join check (header_mismatch) only ever
// compares what these functions produced.
#pragma once

#include "campaign/campaign.hpp"
#include "campaign/registry.hpp"

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace netcons::campaign {

/// The raw spec flags, before registry lookups.
struct SpecCli {
  std::vector<std::string> protocols;
  std::vector<std::string> processes;
  std::vector<std::string> schedulers;
  std::vector<std::string> faults;
  std::vector<std::string> engines;
  std::vector<int> ns;
  int trials = 20;
  std::uint64_t seed = 1;
  ProtocolParams params;
};

/// Strict base-10 integer parse: the whole token must be a number in
/// range (no silent truncation or saturation). Shared by the tool CLIs.
[[nodiscard]] std::optional<long long> parse_ll(const std::string& text);
[[nodiscard]] std::optional<int> parse_i(const std::string& text);

/// Split "a,b,c" into tokens, dropping empties.
[[nodiscard]] std::vector<std::string> split_csv(const std::string& text);

/// Re-join CSV items that are `key=value` continuations of a parameterized
/// spec onto the previous item with the canonical ':' separator, so
/// "proximity:alpha=2,r=0.1,uniform" parses as the two specs a human
/// reads: {"proximity:alpha=2:r=0.1", "uniform"}.
[[nodiscard]] std::vector<std::string> join_spec_params(std::vector<std::string> items);

/// Try to consume argv[i] as a spec flag (advancing i past its value).
/// Returns 1 when consumed, 0 when argv[i] is not a spec flag, -1 on a
/// malformed value (diagnostic already printed to stderr).
[[nodiscard]] int consume_spec_flag(SpecCli& cli, int argc, char** argv, int& i);

/// The spec-flag lines of a usage/--help message (each line indented two
/// spaces and newline-terminated).
[[nodiscard]] std::string spec_usage();

/// Print every registered name the spec flags accept (protocols,
/// processes, schedulers, engines, fault-plan examples + grammar) — the
/// body of --list, shared so every spec-declaring tool can offer it.
void print_registry(std::ostream& out);

/// Resolve names against the registries ("all" expands to every registered
/// protocol/process) and assemble the CampaignSpec. nullopt on unknown
/// names or an empty grid; the diagnostic (naming what IS registered) is
/// stored in `*error` when given, never printed.
[[nodiscard]] std::optional<CampaignSpec> build_spec(const SpecCli& cli,
                                                     std::string* error = nullptr);

}  // namespace netcons::campaign
