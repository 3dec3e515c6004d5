//===- obs/TraceCheck.h - Chrome trace semantic validation ------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantic validation of Chrome trace-event documents, shared by the
/// pf_json_check and pf_trace_check CTest/CI tools. Beyond per-event
/// field presence (string `ph`, `pid`/`tid` and numeric flow `id`s that
/// are integers within +-2^53, a non-negative `ts` on every non-metadata
/// event, non-negative `dur`), checkChromeTrace enforces the span algebra
/// the exporters promise:
///
///  - per (pid, tid) lane, duration events nest: every `E` closes the
///    most recent open `B` (matching its name when the `E` carries one),
///    and no lane ends with an open `B`;
///  - `X` complete events are exempt from nesting (exec-phase spans
///    deliberately overlap their enclosing attempt span);
///  - flow events resolve: every flow id seen on a finish (`f`) was
///    started (`s`), and no start is left dangling. Ids are numbers or
///    strings, matched by type and value: `"7"` does not match `7`.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_OBS_TRACECHECK_H
#define PIMFLOW_OBS_TRACECHECK_H

#include <cstddef>
#include <string>

#include "obs/Json.h"

namespace pf::obs {

/// Tallies of a validated trace, for tool summary lines and tests.
struct TraceCheckSummary {
  size_t Events = 0;        ///< total traceEvents entries
  size_t CompleteSpans = 0; ///< `X` events
  size_t PairedSpans = 0;   ///< matched B/E pairs
  size_t Instants = 0;      ///< `i` events
  size_t FlowChains = 0;    ///< distinct resolved flow ids
  size_t Lanes = 0;         ///< distinct (pid, tid) pairs
};

/// Validates \p Doc (a parsed Chrome trace document) against the rules in
/// the file comment. Returns true when clean; otherwise returns false and
/// fills \p Error with the first violation, naming the offending
/// traceEvents index. \p Summary, when non-null, is filled on success.
bool checkChromeTrace(const JsonValue &Doc, std::string &Error,
                      TraceCheckSummary *Summary = nullptr);

} // namespace pf::obs

#endif // PIMFLOW_OBS_TRACECHECK_H
