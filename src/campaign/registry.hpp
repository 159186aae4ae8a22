// Name -> spec registries shared by the CLI tools (netcons_run,
// netcons_campaign) and by campaign declarations in benches/tests. One
// place to register a new protocol, process, or scheduler and every
// workload surface picks it up.
#pragma once

#include "campaign/campaign.hpp"

#include <optional>
#include <string>
#include <vector>

namespace netcons::campaign {

/// Parameters for the parameterized protocol families.
struct ProtocolParams {
  int k = 2;  ///< kRC replica count (>= 2).
  int c = 3;  ///< c-Cliques clique order (>= 3).
  int d = 3;  ///< Degree-doubling target degree.
};

/// Registered protocol names, in listing order. Excludes Graph-Replication,
/// whose spec depends on the population size (see netcons_run's
/// `replication-ring`).
[[nodiscard]] const std::vector<std::string>& protocol_names();

/// Spec for a registered protocol name; nullopt if unknown.
[[nodiscard]] std::optional<ProtocolSpec> make_protocol(const std::string& name,
                                                        const ProtocolParams& params = {});

/// Registered Section 3.3 process names (Table 1 order).
[[nodiscard]] const std::vector<std::string>& process_names();

[[nodiscard]] std::optional<ProcessSpec> make_process(const std::string& name);

/// Registered scheduler names ("uniform", "permutation", "stale-biased",
/// "proximity"). Like the fault axis, "proximity" is a spec family, not a
/// single name: `proximity[:alpha=A][:r=R][:layout=L]` with layout one of
/// uniform / clustered / grid (see sched/proximity.hpp).
[[nodiscard]] const std::vector<std::string>& scheduler_names();

/// Scheduler option (name + factory) for a registered name or spec;
/// nullopt if unknown or malformed, with the reason in `error` when
/// non-null. "uniform" yields a null factory (the simulator
/// default). Proximity specs canonicalize -- every omitted parameter is
/// filled with its default in fixed alpha, r, layout order -- so the
/// exported `scheduler` column is stable no matter how the spec was typed.
[[nodiscard]] std::optional<SchedulerOption> make_scheduler(const std::string& name,
                                                            std::string* error = nullptr);

/// Registered execution-engine names ("naive", "census"); see
/// core/engine.hpp for the contract each implements.
[[nodiscard]] const std::vector<std::string>& engine_names();

/// Engine option (name + factory) for a registered name; nullopt if
/// unknown. "naive" yields a null factory (the reference NaiveEngine).
[[nodiscard]] std::optional<EngineOption> make_engine(const std::string& name);

/// Canonical example fault-plan specs for --list. Unlike the other axes the
/// fault axis is open-ended: any spec matching the grammar of
/// faults/fault_plan.hpp is a valid value.
[[nodiscard]] const std::vector<std::string>& fault_plan_examples();

/// Parse a fault-plan axis value ("none", "crash:k=2", ...). On bad grammar
/// returns nullopt and, when `error` is non-null, stores the parser's
/// message (which quotes the grammar) there.
[[nodiscard]] std::optional<faults::FaultPlan> make_fault_plan(const std::string& spec,
                                                               std::string* error = nullptr);

}  // namespace netcons::campaign
