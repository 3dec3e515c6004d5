//===- obs/Scope.h - Session-scoped observability registries -----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-session observability scopes (docs/INTERNALS.md section 13). The
/// process-wide `Registry` singleton makes the engine non-reentrant: two
/// concurrent `PimFlow` runs interleave their counters, quantiles, and
/// gauges into one shared namespace, so neither run can be attributed
/// afterwards. A `Scope` is a private registry a caller (a serve
/// `Session`, a bench iteration, a test, the `pimflow trace` dump
/// rebuilding command streams) owns outright; installing it with a
/// `ScopeGuard` reroutes every `obs::addCounter` / `obs::recordMetric` /
/// `obs::setGauge` / `obs::advanceSimCycles` call on the *current thread*
/// into the scope instead of the global registry.
///
/// Routing is thread-local by design: concurrent sessions on different
/// threads each see only their own scope, and a thread with no guard
/// installed keeps the historical behaviour (the global registry), so
/// every existing one-shot CLI path is unchanged.
///
/// Deliberately global (documented exclusions, see `resetAll()`):
///  - `Tracer`: an append-only, mutex-guarded span log whose `nowUs()`
///    epoch is also the wall-tick domain for sliding windows; splitting it
///    per scope would desynchronize timestamps across sessions.
///  - `FlightRecorder`: crash forensics. Its per-thread bounded rings are
///    already race-free, and a post-mortem wants the interleaved history
///    of *all* sessions, not one.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_OBS_SCOPE_H
#define PIMFLOW_OBS_SCOPE_H

#include "obs/Counters.h"

namespace pf::obs {

/// A private observability namespace: one registry, constructed enabled (a
/// scope exists to collect; the global on/off switch only governs the
/// global registry). Scopes are cheap enough to create per request: on a
/// 4-vCPU host (median of 300 runs each), an engine run of materialized
/// mobilenet-v2 or resnet-50 inside a fresh scope costs about 1.3x an
/// unscoped one, creating, filling and destroying the scope included, and
/// toy's 13 us run about 2x. A scope must outlive any ScopeGuard
/// installing it.
class Scope {
public:
  Scope() { Reg.setEnabled(true); }

  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

  Registry &registry() { return Reg; }
  const Registry &registry() const { return Reg; }

private:
  Registry Reg;
};

/// RAII installer: routes this thread's obs helpers into \p S for the
/// guard's lifetime, restoring the previous scope (usually none — the
/// globals) on destruction. Guards nest; the innermost wins. A guard is
/// thread-affine: it routes only the constructing thread, so work handed
/// to a pool must install its own guard inside the pool task.
class ScopeGuard {
public:
  explicit ScopeGuard(Scope &S);
  ~ScopeGuard();

  ScopeGuard(const ScopeGuard &) = delete;
  ScopeGuard &operator=(const ScopeGuard &) = delete;

private:
  Scope *Prev;
};

/// The scope installed on the current thread, or nullptr when obs calls
/// route to the global registry.
Scope *currentScope();

} // namespace pf::obs

#endif // PIMFLOW_OBS_SCOPE_H
