#include "faults/fault_plan.hpp"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace netcons::faults {

namespace {

[[noreturn]] void fail(const std::string& spec, const std::string& why) {
  throw std::invalid_argument("fault plan '" + spec + "': " + why + "\n" + fault_plan_grammar());
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream stream(s);
  std::string item;
  while (std::getline(stream, item, sep)) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

FaultEvent parse_event(const std::string& spec, const std::string& text) {
  const std::vector<std::string> parts = split(text, ':');
  if (parts.empty()) fail(spec, "empty event");

  FaultEvent event;
  const std::string& kind = parts.front();
  if (kind == "crash") {
    event.kind = FaultKind::Crash;
  } else if (kind == "edge-burst") {
    event.kind = FaultKind::EdgeBurst;
  } else if (kind == "edge-rate") {
    event.kind = FaultKind::EdgeRate;
  } else if (kind == "reset") {
    event.kind = FaultKind::Reset;
  } else {
    fail(spec, "unknown fault kind '" + kind + "'");
  }

  for (std::size_t i = 1; i < parts.size(); ++i) {
    const std::string& part = parts[i];
    const std::size_t eq = part.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == part.size()) {
      fail(spec, "malformed parameter '" + part + "' (expected name=value)");
    }
    const std::string key = part.substr(0, eq);
    const std::string value = part.substr(eq + 1);
    char* end = nullptr;
    const double numeric = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') {
      fail(spec, "non-numeric value in '" + part + "'");
    }
    // k/at/every/times/for are counts: reject 'crash:k=2.9' -- or a value
    // past what the field holds exactly -- instead of silently turning it
    // into a different experiment.
    auto integer_at_least_one = [&](const char* what, double max) {
      if (!(numeric >= 1 && numeric <= max) || numeric != std::floor(numeric)) {
        fail(spec, std::string(what) + " must be an integer in [1, " +
                       std::to_string(static_cast<std::uint64_t>(max)) + "] in '" + part + "'");
      }
    };
    constexpr double kMaxCount = std::numeric_limits<int>::max();
    constexpr double kMaxSteps = 9007199254740991.0;  // 2^53 - 1: every integer is exact
    const bool burst = event.kind != FaultKind::EdgeRate;
    if (key == "k" && (event.kind == FaultKind::Crash || event.kind == FaultKind::Reset)) {
      integer_at_least_one("k", kMaxCount);
      event.count = static_cast<int>(numeric);
    } else if (key == "f" && event.kind == FaultKind::EdgeBurst) {
      if (!(numeric > 0.0 && numeric <= 1.0)) fail(spec, "f must be in (0, 1] in '" + part + "'");
      event.fraction = numeric;
    } else if (key == "p" && event.kind == FaultKind::EdgeRate) {
      if (!(numeric > 0.0 && numeric < 1.0)) fail(spec, "p must be in (0, 1) in '" + part + "'");
      event.rate = numeric;
    } else if (key == "at") {
      integer_at_least_one("at", kMaxSteps);
      event.at = static_cast<std::uint64_t>(numeric);
    } else if (key == "every" && burst) {
      integer_at_least_one("every", kMaxSteps);
      event.every = static_cast<std::uint64_t>(numeric);
    } else if (key == "times" && burst) {
      integer_at_least_one("times", kMaxCount);
      event.times = static_cast<int>(numeric);
    } else if (key == "for" && event.kind == FaultKind::EdgeRate) {
      integer_at_least_one("for", kMaxSteps);
      event.window = static_cast<std::uint64_t>(numeric);
    } else {
      fail(spec, "unknown parameter '" + key + "' for kind '" + kind + "'");
    }
  }

  if (event.times > 1 && event.every == 0) {
    fail(spec, "times > 1 needs a period (add every=E)");
  }
  return event;
}

FaultEvent parse_event_with_target(const std::string& spec, const std::string& text) {
  // target= carries a word, not a number, so it is peeled off before the
  // numeric parameter loop.
  std::string numeric_text;
  std::string target;
  for (const std::string& part : split(text, ':')) {
    if (part.rfind("target=", 0) == 0) {
      if (!target.empty()) fail(spec, "duplicate parameter 'target' in '" + part + "'");
      target = part.substr(7);
      if (target.empty()) fail(spec, "malformed parameter '" + part + "' (expected name=value)");
      continue;
    }
    if (!numeric_text.empty()) numeric_text += ':';
    numeric_text += part;
  }
  FaultEvent event = parse_event(spec, numeric_text);
  if (target.empty()) return event;
  if (event.kind != FaultKind::Crash && event.kind != FaultKind::Reset) {
    fail(spec, "target= applies to crash/reset only");
  }
  if (target == "random") {
    event.target = VictimTarget::Random;
  } else if (target == "max-degree") {
    event.target = VictimTarget::MaxDegree;
  } else if (target == "leader") {
    event.target = VictimTarget::Leader;
  } else {
    fail(spec, "unknown target '" + target + "' (random, max-degree, leader)");
  }
  return event;
}

}  // namespace

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::Crash: return "crash";
    case FaultKind::EdgeBurst: return "edge-burst";
    case FaultKind::EdgeRate: return "edge-rate";
    case FaultKind::Reset: return "reset";
  }
  return "?";
}

const char* to_string(VictimTarget target) noexcept {
  switch (target) {
    case VictimTarget::Random: return "random";
    case VictimTarget::MaxDegree: return "max-degree";
    case VictimTarget::Leader: return "leader";
  }
  return "?";
}

FaultPlan parse_fault_plan(const std::string& spec) {
  FaultPlan plan;
  plan.name = spec;
  if (spec.empty() || spec == "none") {
    plan.name = "none";
    return plan;
  }
  for (const std::string& event : split(spec, '+')) {
    plan.events.push_back(parse_event_with_target(spec, event));
  }
  if (plan.events.empty()) fail(spec, "no events");
  return plan;
}

const std::string& fault_plan_grammar() {
  static const std::string grammar =
      "fault plan grammar ('+' composes events):\n"
      "  none\n"
      "  crash:k=K[:target=V][:at=S][:every=E:times=T]      crash K nodes\n"
      "  edge-burst:f=F[:at=S][:every=E:times=T] delete ceil(F * active edges)\n"
      "  edge-rate:p=P[:at=S][:for=W]            delete one edge per Geometric(P) gap\n"
      "  reset:k=K[:target=V][:at=S][:every=E:times=T]      reset K nodes to q0\n"
      "victim targets V: random (default), max-degree, leader\n"
      "burst kinds without at/every fire once at first stabilization";
  return grammar;
}

}  // namespace netcons::faults
