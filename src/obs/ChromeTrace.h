//===- obs/ChromeTrace.h - Chrome trace-event JSON export -------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a compilation + simulated execution as Chrome trace-event JSON,
/// loadable in chrome://tracing or https://ui.perfetto.dev. Two process
/// groups:
///
///  * pid 1 "pimflow compile (wall clock)": the tracer's PF_TRACE_SCOPE
///    spans, one track per recording thread — canonicalize, profiling,
///    DP search, codegen, execution phases;
///  * pid 2 "execution (simulated)": the ExecutionEngine Timeline, with
///    track 0 the GPU lane and one track per PIM channel. A GPU node is one
///    slice on the GPU lane; a PIM node is one slice on every channel its
///    kernel record's mapping occupies (so MD-DP halves and pipeline-stage
///    overlap are visible per channel).
///
/// Wall-clock and simulated timestamps share the microsecond unit but not
/// an origin; the pid split keeps them visually separate.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_OBS_CHROMETRACE_H
#define PIMFLOW_OBS_CHROMETRACE_H

#include <string>
#include <vector>

#include "core/PimFlow.h"
#include "obs/Json.h"
#include "obs/Trace.h"

namespace pf::obs {

/// Metadata events naming process \p Pid and thread (\p Pid, \p Tid) in
/// the viewer; shared by this exporter and the serve request trace.
void emitProcessName(JsonWriter &W, int Pid, const std::string &Name);
void emitThreadName(JsonWriter &W, int Pid, int Tid,
                    const std::string &Name);

/// Renders \p CompileSpans plus the execution timeline of (\p G, \p TL)
/// as a Chrome trace JSON document.
std::string renderChromeTrace(const Graph &G, const Timeline &TL,
                              const std::vector<TraceEvent> &CompileSpans);

/// Convenience: renders \p R with the global tracer's recorded spans.
std::string renderChromeTrace(const CompileResult &R);

/// Renders only the tracer's compile-phase spans (for driver modes without
/// an execution timeline, e.g. profiling).
std::string renderCompileTrace(const std::vector<TraceEvent> &CompileSpans);

/// Writes renderChromeTrace(R) to \p Path; false on I/O failure.
bool writeChromeTrace(const CompileResult &R, const std::string &Path);

} // namespace pf::obs

#endif // PIMFLOW_OBS_CHROMETRACE_H
