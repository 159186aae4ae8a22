#include "campaign/spec_cli.hpp"

#include "faults/fault_plan.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <utility>

namespace netcons::campaign {

namespace {

/// "a, b, c" -- so an unknown-name error can show what IS registered.
std::string joined(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

}  // namespace

std::optional<long long> parse_ll(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) return std::nullopt;
  return value;
}

std::optional<int> parse_i(const std::string& text) {
  const auto value = parse_ll(text);
  if (!value || *value < std::numeric_limits<int>::min() ||
      *value > std::numeric_limits<int>::max()) {
    return std::nullopt;
  }
  return static_cast<int>(*value);
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::vector<std::string> join_spec_params(std::vector<std::string> items) {
  // A bare `key=value` item after a CSV split is a continuation of the
  // previous item's spec -- "proximity:alpha=2,r=0.1" reads naturally but
  // splits at the comma -- so re-join it with the canonical ':' separator.
  std::vector<std::string> out;
  for (std::string& item : items) {
    const std::size_t eq = item.find('=');
    bool continuation = !out.empty() && eq != std::string::npos && eq > 0;
    if (continuation) {
      for (std::size_t i = 0; i < eq; ++i) {
        const char c = item[i];
        if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_') {
          continuation = false;
          break;
        }
      }
      if (continuation && std::isdigit(static_cast<unsigned char>(item[0])) != 0) {
        continuation = false;
      }
    }
    if (continuation) {
      out.back() += ":" + item;
    } else {
      out.push_back(std::move(item));
    }
  }
  return out;
}

int consume_spec_flag(SpecCli& cli, int argc, char** argv, int& i) {
  const std::string arg = argv[i];
  const auto next = [&]() -> const char* { return (i + 1 < argc) ? argv[++i] : nullptr; };
  if (arg == "--protocols" || arg == "--processes" || arg == "--schedulers" ||
      arg == "--scheduler" || arg == "--faults" || arg == "--engine" || arg == "--ns") {
    const char* v = next();
    if (!v) {
      std::cerr << arg << " expects a value\n";
      return -1;
    }
    if (arg == "--protocols") cli.protocols = split_csv(v);
    if (arg == "--processes") cli.processes = split_csv(v);
    if (arg == "--schedulers" || arg == "--scheduler") {
      cli.schedulers = join_spec_params(split_csv(v));
    }
    if (arg == "--faults") cli.faults = split_csv(v);
    if (arg == "--engine") cli.engines = split_csv(v);
    if (arg == "--ns") {
      for (const std::string& item : split_csv(v)) {
        const auto n = parse_i(item);
        if (!n || *n <= 0) {
          std::cerr << "--ns expects positive integers, got '" << item << "'\n";
          return -1;
        }
        cli.ns.push_back(*n);
      }
    }
    return 1;
  }
  if (arg == "--trials" || arg == "--seed" || arg == "--k" || arg == "--c" || arg == "--d") {
    const char* v = next();
    if (!v) {
      std::cerr << arg << " expects a value\n";
      return -1;
    }
    if (arg == "--seed") {
      // Full 64-bit range (strtoll would reject seeds above 2^63 - 1).
      char* end = nullptr;
      errno = 0;
      const std::uint64_t seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0' || errno == ERANGE) {
        std::cerr << "--seed expects an unsigned 64-bit integer, got '" << v << "'\n";
        return -1;
      }
      cli.seed = seed;
      return 1;
    }
    const auto value = parse_i(v);
    if (!value) {
      std::cerr << arg << " expects an int-range integer, got '" << v << "'\n";
      return -1;
    }
    if (arg == "--trials") cli.trials = *value;
    if (arg == "--k") cli.params.k = *value;
    if (arg == "--c") cli.params.c = *value;
    if (arg == "--d") cli.params.d = *value;
    return 1;
  }
  return 0;
}

std::string spec_usage() {
  return "  --protocols a,b|all     constructor protocols to run (see --list)\n"
         "  --processes a,b|all     Section 3.3 processes to run\n"
         "  --ns N1,N2,...          population sizes (required)\n"
         "  --trials T              trials per grid point (default 20)\n"
         "  --seed S                base seed (default 1)\n"
         "  --schedulers s1,s2      scheduler axis (default uniform); also --scheduler;\n"
         "                          proximity takes params: proximity:alpha=2,r=0.1,layout=grid\n"
         "  --faults none,crash:k=1,...  fault-plan axis (default none)\n"
         "  --engine naive,census,...|list  execution-engine axis (default naive)\n"
         "  --k K  --c C  --d D     protocol-family parameters\n";
}

void print_registry(std::ostream& out) {
  out << "protocols:\n";
  for (const auto& name : protocol_names()) out << "  " << name << '\n';
  out << "processes:\n";
  for (const auto& name : process_names()) out << "  " << name << '\n';
  out << "schedulers:\n";
  for (const auto& name : scheduler_names()) out << "  " << name << '\n';
  out << "  (proximity takes params: proximity[:alpha=A][:r=R][:layout=L], "
         "layout in {uniform, clustered, grid})\n";
  out << "engines:\n";
  for (const auto& name : engine_names()) out << "  " << name << '\n';
  out << "fault plans (examples; see the grammar for the full space):\n";
  for (const auto& name : fault_plan_examples()) out << "  " << name << '\n';
  out << faults::fault_plan_grammar() << '\n';
}

std::optional<CampaignSpec> build_spec(const SpecCli& cli, std::string* error) {
  const auto fail = [error](std::string message) -> std::optional<CampaignSpec> {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };
  CampaignSpec spec;
  spec.ns = cli.ns;
  spec.trials = cli.trials;
  spec.base_seed = cli.seed;

  const std::vector<std::string> protocol_list =
      (cli.protocols.size() == 1 && cli.protocols[0] == "all") ? protocol_names()
                                                               : cli.protocols;
  for (const std::string& name : protocol_list) {
    auto protocol = make_protocol(name, cli.params);
    if (!protocol) {
      return fail("unknown protocol '" + name +
                  "'; registered protocols: " + joined(protocol_names()));
    }
    spec.units.push_back(Unit::protocol(name, std::move(*protocol)));
  }
  const std::vector<std::string> process_list =
      (cli.processes.size() == 1 && cli.processes[0] == "all") ? process_names()
                                                               : cli.processes;
  for (const std::string& name : process_list) {
    auto process = make_process(name);
    if (!process) {
      return fail("unknown process '" + name +
                  "'; registered processes: " + joined(process_names()));
    }
    // Name the grid point by the slug the user typed (and --list prints),
    // so the exported `unit` column matches the input.
    spec.units.push_back(Unit::process(name, std::move(*process)));
  }
  for (const std::string& name : cli.schedulers) {
    std::string message;
    auto scheduler = make_scheduler(name, &message);
    if (!scheduler) return fail(std::move(message));
    spec.schedulers.push_back(std::move(*scheduler));
  }
  for (const std::string& name : cli.faults) {
    std::string message;
    auto plan = make_fault_plan(name, &message);
    if (!plan) return fail(std::move(message));
    spec.faults.push_back(std::move(*plan));
  }
  for (const std::string& name : cli.engines) {
    auto engine = make_engine(name);
    if (!engine) {
      return fail("unknown engine '" + name + "'; registered engines: " + joined(engine_names()));
    }
    spec.engines.push_back(std::move(*engine));
  }

  if (spec.units.empty() || spec.ns.empty()) {
    return fail("nothing to run: need --protocols and/or --processes, plus --ns");
  }
  return spec;
}

}  // namespace netcons::campaign
