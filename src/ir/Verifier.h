//===- ir/Verifier.h - Graph invariant verification -------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The graph verifier: an exhaustive, non-aborting check of every IR
/// invariant the transformation passes rely on. Unlike Graph::validate()
/// (which stops at the first structural error) the verifier collects *all*
/// findings into a DiagnosticEngine with stable codes, so a broken rewrite
/// is pinpointed instead of surfacing as a wrong answer or a distant
/// PF_ASSERT. Invariants checked, in dependency order:
///
///   1. Value table sanity: ids consistent, serializer-legal names.
///   2. Node structure: in-range ValueIds, producer-link consistency,
///      attribute struct matches the op kind, serializer-legal names.
///   3. Dataflow: every consumed flowing value has a live producer or is a
///      graph input (use-before-def), and the live subgraph is acyclic
///      (detected with a local Kahn pass — topoOrder() would abort).
///   4. Graph interface: outputs produced, inputs unproduced non-params.
///   5. Attribute legality: positive kernels/strides, non-negative padding,
///      padding smaller than the kernel (the split passes' arithmetic is
///      only exact under pad < kernel; see docs/INTERNALS.md §8).
///   6. Device legality: Device::Pim only on PIM-offload candidates.
///   7. Shape consistency: shape inference re-run on a copy must succeed
///      and reproduce the stored shapes (stale-shape detection). Skipped
///      when any structural finding above fired, since inference would
///      trip on the same breakage. The copy is made only when
///      storedShapesHold() fails; on a clean graph nothing is copied.
///   8. Def-use index: each value's consumer list and the live-node count
///      equal a fresh scan of the node table (stale-index detection).
///      Checks 1-6 keep their own scans; shape inference toposorts through
///      the index, so check 7 also waits for this one to come out clean.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_IR_VERIFIER_H
#define PIMFLOW_IR_VERIFIER_H

#include <optional>
#include <string>

#include "ir/Graph.h"
#include "support/Diagnostics.h"

namespace pf {

/// Runs every verifier check over \p G, reporting findings into \p DE.
/// Returns true when no errors were reported (warnings do not fail
/// verification). Never aborts, whatever the state of \p G.
bool verify(const Graph &G, DiagnosticEngine &DE);

/// Convenience wrapper: returns the rendered diagnostics on failure, or
/// std::nullopt when \p G verifies clean.
std::optional<std::string> verify(const Graph &G);

/// Check 7 without a copy: true when every live node of \p G has the inputs
/// its kind reads and an output, and inference from its stored input shapes
/// succeeds and equals its stored output shape. Reads each node once, in
/// any order. When it is false, verify() reports why.
bool storedShapesHold(const Graph &G);

/// Verifies \p G and aborts via fatal() with the rendered diagnostics when
/// it is broken. \p When names the pipeline point for the message (e.g.
/// "after MdDpSplit"). Pass-boundary breakage is a compiler bug, not a user
/// error, so the failure mode is a loud stop with evidence.
void verifyOrDie(const Graph &G, const char *When);

} // namespace pf

/// Pass-boundary verification hook. Compiled to a real verifyOrDie() under
/// -DPIMFLOW_CHECKED=ON (the CI configuration) and to a no-op otherwise so
/// release builds pay nothing per pass.
#ifdef PIMFLOW_CHECKED
#define PF_VERIFY_PASS(G, When) ::pf::verifyOrDie((G), (When))
#else
#define PF_VERIFY_PASS(G, When)                                                \
  do {                                                                         \
  } while (false)
#endif

#endif // PIMFLOW_IR_VERIFIER_H
