//===- obs/Scope.h - Caller-scoped observability registries -----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Caller-owned observability scopes (docs/INTERNALS.md section 13). The
/// process-wide `Registry` singleton makes the engine non-reentrant: two
/// `PimFlow` runs interleave their counters and histograms into one
/// shared namespace, so neither run can be attributed afterwards. A
/// `Scope` is a private registry a caller (a bench iteration, a test, the
/// `pimflow trace` dump rebuilding command streams, the serve server's
/// muted scope) owns outright; installing it with a `ScopeGuard` reroutes
/// every `obs::addCounter` / `obs::recordMetric` call on the *current
/// thread* into the scope instead of the global registry. A scope whose
/// registry is disabled (`registry().setEnabled(false)`) mutes what runs
/// under it, its tracer spans included (`obs::scopeMuted`): serve's
/// pricing and cross-check engine runs record there.
///
/// Routing is thread-local by design: scoped runs on different threads
/// each see only their own scope, and a thread with no guard installed
/// keeps the historical behaviour (the global registry), so every
/// existing one-shot CLI path is unchanged.
///
/// Deliberately global (documented exclusions, see `resetAll()`):
///  - `Tracer`: an append-only, mutex-guarded span log with one `nowUs()`
///    epoch; splitting it per scope would desynchronize timestamps across
///    scopes. A muted scope only suppresses its spans.
///  - `FlightRecorder`: crash forensics. Its per-thread bounded rings are
///    already race-free, and a post-mortem wants the interleaved history
///    of *all* scoped runs, not one.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_OBS_SCOPE_H
#define PIMFLOW_OBS_SCOPE_H

#include "obs/Counters.h"

namespace pf::obs {

/// A private observability namespace: one registry, constructed enabled (a
/// scope exists to collect; the global on/off switch only governs the
/// global registry). Scopes are cheap enough to create per run: on a
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
/// to another thread must install its own guard there.
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
