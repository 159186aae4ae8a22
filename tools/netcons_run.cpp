// netcons_run: command-line driver for every constructor in the library.
//
//   netcons_run --protocol global-star --n 50 --seed 7
//   netcons_run --protocol fast-global-line --n 30 --trials 10
//   netcons_run --protocol simple-global-line --n 256 --engine census
//   netcons_run --protocol krc --k 3 --n 16 --dot out.dot
//   netcons_run --protocol c-cliques --c 4 --n 20 --ascii
//   netcons_run --list
//
// Runs the protocol to certified stability, validates the output against the
// paper's target topology, and optionally exports the constructed network
// as Graphviz DOT or ASCII art. With --trials > 1, reports mean/median/CI
// of the convergence time instead.
// --telemetry DIR writes metrics.json (engine internals: effective vs.
// skipped steps, census rebuilds, ...) and trace.json (Perfetto-loadable)
// into DIR after the run.
#include "campaign/campaign.hpp"
#include "campaign/registry.hpp"
#include "core/census_engine.hpp"
#include "graph/render.hpp"
#include "protocols/protocols.hpp"
#include "telemetry/telemetry.hpp"
#include "util/table.hpp"

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>

namespace {

using namespace netcons;

struct Options {
  std::string protocol;
  std::string engine = "naive";
  int n = 20;
  std::uint64_t seed = 1;
  int trials = 1;
  int k = 2;
  int c = 3;
  int d = 3;
  std::optional<std::string> dot_path;
  std::optional<std::string> telemetry_dir;
  bool ascii = false;
  bool list = false;
  bool describe = false;
};

// The shared campaign registry covers every protocol whose spec is
// independent of the population size; Graph-Replication needs n (its input
// graph scales with the population), so it stays a local special case.
std::optional<ProtocolSpec> make_spec(const std::string& name, const Options& opt) {
  if (name == "replication-ring") return protocols::replication(Graph::ring(opt.n / 2));
  return campaign::make_protocol(name, campaign::ProtocolParams{opt.k, opt.c, opt.d});
}

std::vector<std::string> spec_names() {
  std::vector<std::string> names = campaign::protocol_names();
  names.push_back("replication-ring");
  return names;
}

void print_help(const char* argv0) {
  std::cout << "usage: " << argv0 << " --protocol NAME [flags]\n"
            << "       " << argv0 << " --list\n"
            << "\nRun one constructor protocol to certified stability and validate the\n"
               "output graph against the paper's target topology.\n"
            << "\nflags:\n"
               "  --protocol NAME         protocol to run (see --list)\n"
               "  --n N                   population size (default 20)\n"
               "  --seed S                trial seed (default 1)\n"
               "  --trials T              trials; > 1 reports mean/median/CI (default 1)\n"
               "  --engine NAME           execution engine: naive, census (default naive)\n"
               "  --k K  --c C  --d D     protocol-family parameters\n"
               "  --dot FILE              export the constructed network as Graphviz DOT\n"
               "  --ascii                 render the constructed network as ASCII art\n"
               "  --describe              print the protocol's transition table\n"
               "  --telemetry DIR         write metrics.json and trace.json into DIR\n"
               "  --list                  print registered protocols\n"
               "  --help                  this message\n";
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --protocol <name> [--n N] [--seed S] [--trials T]\n"
               "       [--engine naive|census] [--k K] [--c C] [--d D]\n"
               "       [--dot FILE] [--ascii] [--describe] [--telemetry DIR]\n"
               "       " << argv0 << " --list\n"
            << "(--help for flag descriptions)\n";
  return 2;
}

std::optional<Options> parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return (i + 1 < argc) ? argv[++i] : nullptr; };
    if (arg == "--help") {
      print_help(argv[0]);
      std::exit(0);
    } else if (arg == "--list") {
      opt.list = true;
    } else if (arg == "--ascii") {
      opt.ascii = true;
    } else if (arg == "--describe") {
      opt.describe = true;
    } else if (arg == "--protocol") {
      const char* v = next();
      if (!v) return std::nullopt;
      opt.protocol = v;
    } else if (arg == "--engine") {
      const char* v = next();
      if (!v) return std::nullopt;
      opt.engine = v;
    } else if (arg == "--dot") {
      const char* v = next();
      if (!v) return std::nullopt;
      opt.dot_path = v;
    } else if (arg == "--telemetry") {
      const char* v = next();
      if (!v) return std::nullopt;
      opt.telemetry_dir = v;
    } else if (arg == "--n" || arg == "--seed" || arg == "--trials" || arg == "--k" ||
               arg == "--c" || arg == "--d") {
      const char* v = next();
      if (!v) return std::nullopt;
      const long long value = std::atoll(v);
      if (arg == "--n") opt.n = static_cast<int>(value);
      if (arg == "--seed") opt.seed = static_cast<std::uint64_t>(value);
      if (arg == "--trials") opt.trials = static_cast<int>(value);
      if (arg == "--k") opt.k = static_cast<int>(value);
      if (arg == "--c") opt.c = static_cast<int>(value);
      if (arg == "--d") opt.d = static_cast<int>(value);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return std::nullopt;
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = parse(argc, argv);
  if (!parsed) return usage(argv[0]);
  Options opt = *parsed;  // mutable: the compiled-out-telemetry path clears flags

  if (opt.list) {
    std::cout << "available protocols:\n";
    for (const auto& name : spec_names()) {
      const ProtocolSpec spec = *make_spec(name, opt);
      std::cout << "  " << name << "  (|Q| = " << spec.protocol.state_count() << ")  "
                << spec.notes << '\n';
    }
    return 0;
  }
  const auto maybe_spec = make_spec(opt.protocol, opt);
  if (!maybe_spec) {
    std::cerr << "unknown protocol '" << opt.protocol << "' (try --list)\n";
    return 2;
  }

  const ProtocolSpec& spec = *maybe_spec;
  if (opt.describe) std::cout << spec.protocol.describe() << '\n';

  const auto engine_option = campaign::make_engine(opt.engine);
  if (!engine_option) {
    std::cerr << "unknown engine '" << opt.engine << "'; registered engines:";
    for (const auto& name : campaign::engine_names()) std::cerr << ' ' << name;
    std::cerr << "\n";
    return 2;
  }

  // Telemetry: ambient registry/tracer for the run (the trial drivers and
  // engines publish through them), snapshotted to DIR before exit.
  std::optional<telemetry::Registry> registry;
  std::optional<telemetry::Tracer> tracer;
#if defined(NETCONS_TELEMETRY_DISABLED)
  // Honest failure beats empty artifacts: with the instrumentation compiled
  // out, nothing would ever reach the registry or the tracer.
  if (opt.telemetry_dir) {
    std::cerr << "netcons_run: telemetry support was compiled out "
                 "(NETCONS_TELEMETRY=OFF); ignoring --telemetry\n";
    opt.telemetry_dir.reset();
  }
#endif
  if (opt.telemetry_dir) {
    try {
      std::filesystem::create_directories(*opt.telemetry_dir);
    } catch (const std::exception& e) {
      std::cerr << "--telemetry: " << e.what() << '\n';
      return 1;
    }
    registry.emplace();
    tracer.emplace();
    telemetry::set_registry(&*registry);
    telemetry::set_tracer(&*tracer);
  }
  const auto flush_telemetry = [&]() -> bool {
    if (!opt.telemetry_dir) return true;
    telemetry::set_registry(nullptr);
    telemetry::set_tracer(nullptr);
    try {
      registry->write_snapshot(
          (std::filesystem::path(*opt.telemetry_dir) / "metrics.json").string());
      tracer->write_json((std::filesystem::path(*opt.telemetry_dir) / "trace.json").string());
    } catch (const std::exception& e) {
      std::cerr << e.what() << '\n';
      return false;
    }
    std::cout << "wrote telemetry to " << *opt.telemetry_dir << '\n';
    return true;
  };

  if (opt.trials > 1) {
    const campaign::PointResult point =
        campaign::run({.units = {campaign::Unit::protocol(opt.protocol, spec)},
                       .ns = {opt.n},
                       .trials = opt.trials,
                       .engines = {*engine_option},
                       .base_seed = opt.seed})
            .points.front();
    TextTable table({"n", "trials", "failures", "mean steps", "median", "ci95", "min", "max"});
    table.add_row({TextTable::integer(static_cast<std::uint64_t>(point.n)),
                   TextTable::integer(static_cast<std::uint64_t>(point.trials)),
                   TextTable::integer(static_cast<std::uint64_t>(point.failures)),
                   TextTable::num(point.convergence_steps.mean()),
                   TextTable::num(point.convergence_steps.median()),
                   TextTable::num(point.convergence_steps.ci95_halfwidth()),
                   TextTable::num(point.convergence_steps.min()),
                   TextTable::num(point.convergence_steps.max())});
    std::cout << table;
    if (!flush_telemetry()) return 1;
    return point.failures == 0 ? 0 : 1;
  }

  const std::unique_ptr<Engine> engine =
      campaign::instantiate_engine(engine_option->make, spec.protocol, opt.n, opt.seed, {});
  Engine& sim = *engine;
  if (spec.initialize) spec.initialize(sim.mutable_world());
  Engine::StabilityOptions options;
  if (spec.max_steps) options.max_steps = spec.max_steps(opt.n);
  options.certificate = spec.certificate;
  ConvergenceReport report;
  {
    NETCONS_TM_SPAN(run_span, "run_until_stable", "run");
    report = sim.run_until_stable(options);
  }
  if (registry) sim.publish_metrics(*registry);
  const Graph output = sim.world().output_graph(spec.protocol);
  const bool ok = report.stabilized && (!spec.target || spec.target(output));

  std::cout << spec.protocol.name() << " on n = " << opt.n << " [" << sim.engine_name()
            << " engine], seed = " << opt.seed << '\n'
            << "stabilized: " << (report.stabilized ? "yes" : "NO")
            << (report.quiescent ? " (quiescent)" : report.certified ? " (certified)" : "")
            << ", convergence step: " << report.convergence_step << '\n'
            << "target topology: " << (ok ? "reached" : "NOT reached") << '\n'
            << "output: " << output.order() << " nodes, " << output.edge_count()
            << " edges; " << degree_histogram(output) << '\n';

  if (opt.ascii) std::cout << '\n' << ascii_adjacency(output);
  if (opt.dot_path) {
    DotOptions dot;
    dot.graph_name = spec.protocol.name();
    for (int u = 0; u < sim.world().size(); ++u) {
      dot.node_labels.push_back(spec.protocol.state_name(sim.world().state(u)));
    }
    std::ofstream file(*opt.dot_path);
    file << to_dot(output, dot);
    std::cout << "wrote " << *opt.dot_path << '\n';
  }
  if (!flush_telemetry()) return 1;
  return ok ? 0 : 1;
}
