// Ambient telemetry: process-wide registry/tracer pointers plus the
// hot-path instrumentation macros.
//
// Telemetry is opt-in. By default both ambient pointers are null and every
// macro below collapses to a null check (one relaxed atomic load) — the
// instrumented hot paths cost ~nothing when telemetry is off. A tool that
// wants telemetry constructs a Registry and/or Tracer on its own stack,
// publishes them with set_registry()/set_tracer(), and clears them (set to
// nullptr) before the objects go out of scope. The engine and campaign code
// only ever read the ambient pointers; they never own telemetry objects.
//
// Compile-out: configuring with -DNETCONS_TELEMETRY=OFF (CMake option)
// defines NETCONS_TELEMETRY_DISABLED, which turns registry()/tracer() into
// constexpr nullptr and the macros into empty statements — the compiler
// deletes every instrumented site outright.
//
// Determinism contract: none of this touches any Rng or simulation state.
// Sampling decisions come from per-thread counters inside Tracer. The
// simulation's seed streams, outcomes, and summary bytes are identical with
// telemetry on or off (CI-gated).
#pragma once

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

#include <cstdint>

namespace netcons::telemetry {

#if defined(NETCONS_TELEMETRY_DISABLED)

constexpr Registry* registry() noexcept { return nullptr; }
constexpr Tracer* tracer() noexcept { return nullptr; }
inline void set_registry(Registry* /*registry*/) noexcept {}
inline void set_tracer(Tracer* /*tracer*/) noexcept {}

#else

/// The ambient metrics registry, or null when telemetry is off.
[[nodiscard]] Registry* registry() noexcept;

/// The ambient tracer, or null when tracing is off.
[[nodiscard]] Tracer* tracer() noexcept;

/// Publish (or clear, with nullptr) the ambient registry. The caller keeps
/// ownership and must clear before the registry is destroyed.
void set_registry(Registry* registry) noexcept;

/// Publish (or clear, with nullptr) the ambient tracer. Same ownership
/// rules as set_registry().
void set_tracer(Tracer* tracer) noexcept;

#endif

}  // namespace netcons::telemetry

// Hot-path macros. All tolerate null ambient pointers; the *SPAN variants
// expand to a named local so the span covers the rest of the enclosing
// scope. Name/category arguments must be string literals (the tracer keeps
// the pointers).
#if defined(NETCONS_TELEMETRY_DISABLED)

#define NETCONS_TM_SPAN(var, name, cat) \
  do {                                  \
  } while (false)
#define NETCONS_TM_SAMPLED_SPAN(var, name, cat) \
  do {                                          \
  } while (false)
#define NETCONS_TM_COUNT(name, delta) \
  do {                                \
  } while (false)

#else

/// Unconditionally-recorded scoped span (e.g. one per CLI run).
#define NETCONS_TM_SPAN(var, name, cat) \
  ::netcons::telemetry::Span var(::netcons::telemetry::tracer(), (name), (cat))

/// Scoped span subject to the tracer's sampling knob — for per-trial and
/// finer call sites where recording everything would swamp the trace.
#define NETCONS_TM_SAMPLED_SPAN(var, name, cat)                             \
  ::netcons::telemetry::Tracer* var##_tracer = ::netcons::telemetry::tracer(); \
  if (var##_tracer != nullptr && !var##_tracer->sample()) var##_tracer = nullptr; \
  ::netcons::telemetry::Span var(var##_tracer, (name), (cat))

/// Add `delta` to the ambient counter `name` (no-op when telemetry is off).
#define NETCONS_TM_COUNT(name, delta)                                     \
  do {                                                                    \
    ::netcons::telemetry::Registry* netcons_tm_reg =                      \
        ::netcons::telemetry::registry();                                 \
    if (netcons_tm_reg != nullptr) netcons_tm_reg->add((name), (delta));  \
  } while (false)

#endif
