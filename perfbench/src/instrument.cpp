#include "instrument.hpp"

#include "core/engine.hpp"
#include "core/simulator.hpp"
#include "graph/graph.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <utility>

namespace perfbench {

namespace {

using netcons::ConvergenceReport;
using netcons::Engine;

thread_local double t_trial_start_s = 0.0;
/// When the last traced run_until_stable on this thread returned: the
/// output graph is built between then and the target call.
thread_local std::int64_t t_simulate_end_ns = 0;

std::atomic<netcons::telemetry::Registry*> g_publish{nullptr};

void start_trial_clock() {
  t_trial_start_s = now_s();
  trace::open_trial(static_cast<std::int64_t>(t_trial_start_s * 1e9));
}

/// Forwards the weight-model query (the census engine asks once per trial,
/// from its constructor) inside a span; everything else passes through.
class TimedScheduler final : public netcons::Scheduler {
 public:
  explicit TimedScheduler(std::unique_ptr<netcons::Scheduler> inner) : inner_(std::move(inner)) {}

  [[nodiscard]] netcons::Encounter next(netcons::Rng& rng, int n) override {
    return inner_->next(rng, n);
  }
  void reset() override { inner_->reset(); }
  [[nodiscard]] netcons::SchedulerWeightModel* weight_model(netcons::Rng& rng, int n) override {
    const trace::Scope scope("model_build");
    return inner_->weight_model(rng, n);
  }

 private:
  std::unique_ptr<netcons::Scheduler> inner_;
};

/// Forwards every Engine call; run_until_stable runs inside a `simulate`
/// span that carries the trial's step counts and stepping path.
class TimedEngine final : public Engine {
 public:
  TimedEngine(std::unique_ptr<Engine> inner, trace::Path path)
      : inner_(std::move(inner)), path_(path) {}

  [[nodiscard]] const char* engine_name() const noexcept override {
    return inner_->engine_name();
  }
  [[nodiscard]] const netcons::Protocol& protocol() const noexcept override {
    return inner_->protocol();
  }
  [[nodiscard]] const netcons::World& world() const noexcept override { return inner_->world(); }
  [[nodiscard]] netcons::World& mutable_world() noexcept override {
    return inner_->mutable_world();
  }
  [[nodiscard]] netcons::Rng& rng() noexcept override { return inner_->rng(); }
  [[nodiscard]] std::uint64_t steps() const noexcept override { return inner_->steps(); }
  [[nodiscard]] std::uint64_t effective_steps() const noexcept override {
    return inner_->effective_steps();
  }
  [[nodiscard]] std::uint64_t last_output_change() const noexcept override {
    return inner_->last_output_change();
  }
  void set_interceptor(netcons::StepInterceptor* interceptor) noexcept override {
    inner_->set_interceptor(interceptor);
  }
  void note_output_change() noexcept override { inner_->note_output_change(); }
  bool step() override { return inner_->step(); }
  void run(std::uint64_t count) override { inner_->run(count); }
  [[nodiscard]] std::optional<std::uint64_t> run_until(
      const std::function<bool(const netcons::World&)>& pred, std::uint64_t max_steps) override {
    return inner_->run_until(pred, max_steps);
  }
  [[nodiscard]] ConvergenceReport run_until_stable(const StabilityOptions& options) override {
    ConvergenceReport report;
    {
      trace::Scope scope("simulate");
      report = inner_->run_until_stable(options);
      scope.span().path = path_;
      scope.span().steps = inner_->steps();
      scope.span().effective = inner_->effective_steps();
    }
    if (netcons::telemetry::Registry* registry = g_publish.load()) {
      inner_->publish_metrics(*registry);
    }
    t_simulate_end_ns = trace::now_ns();
    return report;
  }
  [[nodiscard]] bool is_quiescent() const override { return inner_->is_quiescent(); }
  [[nodiscard]] bool is_edge_quiescent() const override { return inner_->is_edge_quiescent(); }
  void publish_metrics(netcons::telemetry::Registry& registry) override {
    inner_->publish_metrics(registry);
  }

 private:
  std::unique_ptr<Engine> inner_;
  trace::Path path_;
};

}  // namespace

void TrialLog::add(double ms, double start_s) {
  const std::lock_guard lock(mutex_);
  ms_.push_back(ms);
  start_s_.push_back(start_s);
}

std::vector<double> TrialLog::since(double since_s) const {
  const std::lock_guard lock(mutex_);
  std::vector<double> out;
  for (std::size_t i = 0; i < ms_.size(); ++i) {
    if (start_s_[i] >= since_s) out.push_back(ms_[i]);
  }
  return out;
}

std::vector<double> TrialLog::all() const {
  const std::lock_guard lock(mutex_);
  return ms_;
}

void TrialLog::clear() {
  const std::lock_guard lock(mutex_);
  ms_.clear();
  start_s_.clear();
}

double now_s() noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void finish_trial(TrialLog& log, const std::string& unit) {
  const double end = now_s();
  trace::close_trial(unit);
  log.add((end - t_trial_start_s) * 1e3, t_trial_start_s);
}

std::uint64_t dense_graph_bytes(int n) noexcept {
  const auto nodes = static_cast<std::uint64_t>(n);
  const std::uint64_t pairs = nodes * (nodes - 1) / 2;
  return (pairs + 63) / 64 * sizeof(std::uint64_t) + nodes * sizeof(int);
}

void set_publish_registry(netcons::telemetry::Registry* registry) noexcept {
  g_publish.store(registry);
}

netcons::campaign::CampaignSpec instrument(const netcons::campaign::CampaignSpec& spec,
                                           bool traced) {
  netcons::campaign::CampaignSpec out = spec;

  // The campaign engine builds a trial's scheduler first of all, so its
  // factory is where the trial clock starts. A null factory (uniform) is
  // replaced by one returning null, which instantiate_engine treats alike.
  if (out.schedulers.empty()) out.schedulers.push_back({"uniform", nullptr});
  for (auto& option : out.schedulers) {
    option.make = [inner = option.make, traced]() -> std::unique_ptr<netcons::Scheduler> {
      start_trial_clock();
      std::unique_ptr<netcons::Scheduler> scheduler = inner ? inner() : nullptr;
      if (traced && scheduler) return std::make_unique<TimedScheduler>(std::move(scheduler));
      return scheduler;
    };
  }
  if (!traced) return out;

  for (auto& unit : out.units) {
    auto* protocol = std::get_if<netcons::ProtocolSpec>(&unit.spec);
    if (protocol == nullptr) continue;
    if (protocol->target) {
      protocol->target = [inner = protocol->target](const netcons::Graph& graph) {
        if (trace::enabled() && t_simulate_end_ns != 0) {
          trace::Span gap;  // World::output_graph ran between the two calls.
          gap.name = "output_graph";
          gap.begin_ns = t_simulate_end_ns;
          gap.end_ns = trace::now_ns();
          gap.bytes = dense_graph_bytes(graph.order());
          trace::record(std::move(gap));
        }
        t_simulate_end_ns = 0;
        trace::Scope scope("target");
        scope.span().bytes = dense_graph_bytes(graph.order());
        return inner(graph);
      };
    }
    if (protocol->certificate) {
      protocol->certificate = [inner = protocol->certificate](const netcons::Protocol& p,
                                                               const netcons::World& world) {
        const trace::Scope scope("certificate");
        return inner(p, world);
      };
    }
  }

  if (out.engines.empty()) out.engines.push_back({"naive", nullptr});
  for (auto& option : out.engines) {
    option.make = [inner = option.make](const netcons::Protocol& protocol, int n,
                                        std::uint64_t seed,
                                        std::unique_ptr<netcons::Scheduler> scheduler)
        -> std::unique_ptr<Engine> {
      const bool weighted = scheduler != nullptr;
      std::unique_ptr<Engine> engine;
      {
        const trace::Scope scope("engine_setup");
        engine = inner ? inner(protocol, n, seed, std::move(scheduler))
                       : std::make_unique<netcons::Simulator>(protocol, n, seed,
                                                              std::move(scheduler));
      }
      const std::string name = engine->engine_name();
      const trace::Path path = name == "naive" ? trace::Path::kNaive
                               : weighted      ? trace::Path::kCensusWeighted
                                               : trace::Path::kCensusUniform;
      return std::make_unique<TimedEngine>(std::move(engine), path);
    };
  }
  return out;
}

}  // namespace perfbench
