//===- serve/RequestTrace.h - Per-request tracing and sampling --*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end request tracing for `pimflow serve` (docs/INTERNALS.md
/// section 15). Every generated request carries a RequestTraceContext —
/// its dense request id plus a seeded 64-bit trace id — and the event
/// loop records a per-attempt history (serve/Session.h's ExecAttempt
/// list) on the virtual clock. After the run, a deterministic tail
/// sampler picks which requests keep full-fidelity traces, and
/// Server::renderTrace turns the sampled set into a Chrome trace-event
/// document:
///
///   pid 3  one lane per sampled request: a root `request` span nesting
///          the `queue` span and one `exec`/`retry` span per attempt,
///          with grant / interrupt / shed instants and the unit run's
///          node-level exec-phase spans.
///   pid 4  one lane per PIM channel plus the GPU floor lane: the same
///          attempts laid out as channel occupancy, fault outage
///          windows, and breaker trip/probe/readmit instants.
///
/// Flow events (`ph:"s"`/`ph:"f"`, id = request<<8 | attempt) link each
/// request-lane attempt to the channel lane it ran on. All timestamps
/// are virtual nanoseconds scaled to microseconds — never wall clock —
/// so the document is byte-identical from run to run.
///
/// Sampling policy grammar (`--trace-sample=`):
///
///   all          every request (the default)
///   tail         shed + deadline-missed + faulted + slowest-8
///   tail:<K>     same, with the slowest-K cutoff at K
///
/// The tail set is decided from the finished ServeResult alone, so it is
/// deterministic in (spec, options) and bounded under chaos matrices.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_SERVE_REQUESTTRACE_H
#define PIMFLOW_SERVE_REQUESTTRACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "support/Diagnostics.h"

namespace pf::serve {

struct ServeResult;

/// The identity a request carries through the serve pipeline: the dense
/// request id (lane + log correlation key) and the seeded trace id (the
/// cross-artifact correlation key rendered as 16 hex digits).
struct RequestTraceContext {
  int RequestId = -1;
  uint64_t TraceId = 0;
};

/// The stable trace id of request \p RequestId in a stream seeded with
/// \p Seed: FNV-1a 64 over the (seed, id) pair. Pure, so every consumer
/// (summary, report, trace, flight dump) derives the same id without
/// coordination.
uint64_t requestTraceId(uint64_t Seed, int RequestId);

/// requestTraceId rendered the way every artifact spells it: 16
/// lower-case hex digits.
std::string formatTraceId(uint64_t TraceId);

/// Parsed `--trace-sample=` policy.
struct TraceSamplePolicy {
  enum class Kind : uint8_t {
    All,  ///< trace every request
    Tail, ///< shed + deadline-missed + faulted + slowest-K
  };
  Kind K = Kind::All;
  int SlowestK = 8;

  /// Parses the grammar above. Returns false and a serve.bad-spec
  /// diagnostic in \p DE on malformed input.
  static bool parse(const std::string &Spec, TraceSamplePolicy &Out,
                    DiagnosticEngine &DE);

  /// The canonical spelling ("all" / "tail:8"), echoed by the report.
  std::string describe() const;
};

/// The sampled request-id set of \p R under \p P, sorted ascending.
/// Decided entirely from the virtual-time session records, so the set is
/// byte-identical from run to run. Tail membership: shed requests,
/// deadline-missed (run-late or queue-expired) requests, faulted
/// requests (any outage interrupt or fault-retry/retry-budget outcome),
/// and the SlowestK highest-latency completed requests (latency ties
/// broken toward the lower id).
std::vector<int> sampleRequests(const ServeResult &R,
                                const TraceSamplePolicy &P);

} // namespace pf::serve

#endif // PIMFLOW_SERVE_REQUESTTRACE_H
