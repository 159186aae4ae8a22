#include "campaign/registry.hpp"

#include "core/census_engine.hpp"
#include "protocols/protocols.hpp"
#include "sched/proximity.hpp"
#include "sched/schedulers.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

namespace netcons::campaign {

namespace {

using ProtocolFactory = std::function<ProtocolSpec(const ProtocolParams&)>;

const std::map<std::string, ProtocolFactory>& protocol_map() {
  static const std::map<std::string, ProtocolFactory> map = {
      {"simple-global-line", [](const ProtocolParams&) { return protocols::simple_global_line(); }},
      {"fast-global-line", [](const ProtocolParams&) { return protocols::fast_global_line(); }},
      {"faster-global-line", [](const ProtocolParams&) { return protocols::faster_global_line(); }},
      {"preelected-line", [](const ProtocolParams&) { return protocols::preelected_line(); }},
      {"cycle-cover", [](const ProtocolParams&) { return protocols::cycle_cover(); }},
      {"global-star", [](const ProtocolParams&) { return protocols::global_star(); }},
      {"global-ring", [](const ProtocolParams&) { return protocols::global_ring(); }},
      {"2rc", [](const ProtocolParams&) { return protocols::two_rc(); }},
      {"krc", [](const ProtocolParams& p) { return protocols::krc(p.k); }},
      {"c-cliques", [](const ProtocolParams& p) { return protocols::c_cliques(p.c); }},
      {"spanning-net", [](const ProtocolParams&) { return protocols::spanning_net(); }},
      {"degree-doubling", [](const ProtocolParams& p) { return protocols::degree_doubling(p.d); }},
      {"partition-udm", [](const ProtocolParams&) { return protocols::partition_udm(); }},
  };
  return map;
}

const std::vector<ProcessSpec>& process_list() {
  static const std::vector<ProcessSpec> list = all_processes();
  return list;
}

/// CLI-friendly name: "One-way epidemic" -> "one-way-epidemic".
std::string slugify(const std::string& name) {
  std::string out;
  for (const char c : name) {
    out += (c == ' ') ? '-' : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

constexpr const char* kProximityGrammar =
    "proximity spec: proximity[:alpha=A][:r=R][:layout=L] with A > 0, "
    "0 < R <= 1, L in {uniform, clustered, grid}";

/// Strict double parse: the whole token must be a finite decimal number.
/// from_chars takes no leading blanks, sign '+', hex, or embedded NUL, and
/// `inf` / `nan` fail the finiteness check.
std::optional<double> parse_number(const std::string& text) {
  double value = 0.0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) return std::nullopt;
  return value;
}

std::optional<double> parse_positive(const std::string& text) {
  const std::optional<double> value = parse_number(text);
  if (!value || !(*value > 0.0)) return std::nullopt;
  return value;
}

/// Parse a proximity spec, filling `params` and the canonicalized spec
/// string (defaults spelled out, fixed alpha/r/layout order, the user's
/// literal value tokens preserved).
bool parse_proximity(const std::string& spec, ProximityParams* params,
                     std::string* canonical, std::string* error) {
  std::string alpha_tok = "2";
  std::string r_tok = "0.1";
  std::string layout_tok = "uniform";

  std::stringstream stream(spec);
  std::string item;
  std::getline(stream, item, ':');  // the "proximity" head, already matched
  while (std::getline(stream, item, ':')) {
    const std::size_t eq = item.find('=');
    const std::string key = eq == std::string::npos ? item : item.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : item.substr(eq + 1);
    if (eq == std::string::npos || value.empty()) {
      if (error != nullptr) {
        *error = "proximity: expected key=value, got '" + item + "'; " + kProximityGrammar;
      }
      return false;
    }
    if (key == "alpha") {
      const auto alpha = parse_positive(value);
      if (!alpha) {
        if (error != nullptr) {
          *error = "proximity: alpha must be a positive number, got '" + value + "'";
        }
        return false;
      }
      params->alpha = *alpha;
      alpha_tok = value;
    } else if (key == "r") {
      const auto r = parse_positive(value);
      if (!r || *r > 1.0) {
        if (error != nullptr) {
          *error = "proximity: r must be in (0, 1], got '" + value + "'";
        }
        return false;
      }
      params->radius = *r;
      r_tok = value;
    } else if (key == "layout") {
      const auto layout = spatial::layout_by_name(value);
      if (!layout) {
        if (error != nullptr) {
          *error = "proximity: unknown layout '" + value +
                   "' (expected uniform, clustered, or grid)";
        }
        return false;
      }
      params->layout = *layout;
      layout_tok = value;
    } else {
      if (error != nullptr) {
        *error = "proximity: unknown parameter '" + key + "'; " + kProximityGrammar;
      }
      return false;
    }
  }
  *canonical = "proximity:alpha=" + alpha_tok + ":r=" + r_tok + ":layout=" + layout_tok;
  return true;
}

}  // namespace

const std::vector<std::string>& protocol_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& [name, factory] : protocol_map()) out.push_back(name);
    return out;
  }();
  return names;
}

std::optional<ProtocolSpec> make_protocol(const std::string& name,
                                          const ProtocolParams& params) {
  const auto it = protocol_map().find(name);
  if (it == protocol_map().end()) return std::nullopt;
  return it->second(params);
}

const std::vector<std::string>& process_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& spec : process_list()) out.push_back(slugify(spec.name));
    return out;
  }();
  return names;
}

std::optional<ProcessSpec> make_process(const std::string& name) {
  for (const auto& spec : process_list()) {
    if (spec.name == name || slugify(spec.name) == name) return spec;
  }
  return std::nullopt;
}

const std::vector<std::string>& scheduler_names() {
  static const std::vector<std::string> names = {"uniform", "permutation", "stale-biased",
                                                 "proximity"};
  return names;
}

const std::vector<std::string>& fault_plan_examples() {
  static const std::vector<std::string> examples = {
      "none", "crash:k=1", "crash:k=2", "crash:k=1:target=max-degree",
      "crash:k=1:target=leader", "edge-burst:f=0.1", "edge-rate:p=1e-4", "reset:k=1"};
  return examples;
}

const std::vector<std::string>& engine_names() {
  static const std::vector<std::string> names = {"naive", "census"};
  return names;
}

std::optional<EngineOption> make_engine(const std::string& name) {
  if (name == "naive") return EngineOption{"naive", nullptr};
  if (name == "census") {
    return EngineOption{"census",
                        [](const Protocol& protocol, int n, std::uint64_t seed,
                           std::unique_ptr<Scheduler> scheduler) -> std::unique_ptr<Engine> {
                          return std::make_unique<CensusEngine>(protocol, n, seed,
                                                                std::move(scheduler));
                        }};
  }
  return std::nullopt;
}

std::optional<faults::FaultPlan> make_fault_plan(const std::string& spec, std::string* error) {
  try {
    return faults::parse_fault_plan(spec);
  } catch (const std::invalid_argument& e) {
    if (error != nullptr) *error = e.what();
    return std::nullopt;
  }
}

std::optional<SchedulerOption> make_scheduler(const std::string& name, std::string* error) {
  if (name == "uniform") return SchedulerOption{"uniform", nullptr};
  if (name == "permutation") {
    return SchedulerOption{"permutation",
                           [] { return std::make_unique<RandomPermutationScheduler>(); }};
  }
  if (name == "stale-biased") {
    return SchedulerOption{"stale-biased",
                           [] { return std::make_unique<StaleBiasedScheduler>(); }};
  }
  if (name.rfind("stale-biased:", 0) == 0) {
    // The bare name keeps its historical spelling (bias 0.5); only the
    // parameterized form canonicalizes the bias into the point name.
    const std::string value = name.substr(std::string("stale-biased:").size());
    if (value.rfind("bias=", 0) != 0) {
      if (error != nullptr) {
        *error = "stale-biased spec: stale-biased[:bias=B] with B in [0, 1), got '" + name + "'";
      }
      return std::nullopt;
    }
    const std::string bias_tok = value.substr(std::string("bias=").size());
    const std::optional<double> parsed = parse_number(bias_tok);
    if (!parsed || *parsed < 0.0 || *parsed >= 1.0) {
      if (error != nullptr) {
        *error = "stale-biased: bias must be in [0, 1), got '" + bias_tok + "'";
      }
      return std::nullopt;
    }
    const double bias = *parsed;
    return SchedulerOption{"stale-biased:bias=" + bias_tok,
                           [bias] { return std::make_unique<StaleBiasedScheduler>(bias); }};
  }
  if (name == "proximity" || name.rfind("proximity:", 0) == 0) {
    ProximityParams params;
    std::string canonical;
    if (!parse_proximity(name, &params, &canonical, error)) return std::nullopt;
    return SchedulerOption{canonical,
                           [params] { return std::make_unique<ProximityScheduler>(params); }};
  }
  if (error != nullptr) {
    std::string known;
    for (const std::string& option : scheduler_names()) {
      known += (known.empty() ? "" : ", ") + option;
    }
    *error = "unknown scheduler '" + name + "'; registered schedulers: " + known;
  }
  return std::nullopt;
}

}  // namespace netcons::campaign
