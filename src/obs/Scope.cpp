//===- obs/Scope.cpp - Session-scoped observability registries ------------===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Scope.h"

#include "obs/Trace.h"

namespace pf::obs {

namespace {
thread_local Scope *CurrentScope = nullptr;
} // namespace

ScopeGuard::ScopeGuard(Scope &S) : Prev(CurrentScope) { CurrentScope = &S; }

ScopeGuard::~ScopeGuard() { CurrentScope = Prev; }

Scope *currentScope() { return CurrentScope; }

Registry &activeRegistry() {
  if (Scope *S = CurrentScope)
    return S->registry();
  return Registry::instance();
}

bool scopeMuted() {
  const Scope *S = CurrentScope;
  return S && !S->registry().enabled();
}

} // namespace pf::obs
