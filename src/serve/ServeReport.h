//===- serve/ServeReport.h - Serve-mode perf report -------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving sibling of obs/PerfReport: a JSON document of kind
/// `pimflow-serve-report`, versioned by obs::PerfReportSchemaVersion,
/// carrying the per-request outcome table (with trace ids and, for
/// sampled requests, virtual-time segment lists), exact request-latency
/// / queue-delay percentiles, and the shared counters/metrics sections (obs::emitObsSections) snapshotted
/// from the caller's scope — where the serve.* histogram families
/// recorded by Server::run live. `pimflow serve --perf-report=<path>`
/// writes it; `pimflow report --request=<id>` renders one request's
/// attribution from it (renderServeRequestText).
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_SERVE_SERVEREPORT_H
#define PIMFLOW_SERVE_SERVEREPORT_H

#include <string>

#include "obs/Json.h"
#include "serve/Server.h"

namespace pf::serve {

/// Renders the serve report of \p R as JSON.
std::string renderServeReport(const ServeResult &R);

/// Writes renderServeReport(R) to \p Path; false on I/O failure.
bool writeServeReport(const ServeResult &R, const std::string &Path);

/// Renders one request's virtual-time attribution from a parsed serve
/// report (`pimflow report --request=<id>`): the queue-wait interval,
/// each attempt's grant / exec-phase / retry segment, and the latency
/// split. Returns "" and fills \p Error when the document is not a serve
/// report, the id is absent, or the request was not sampled (pointing at
/// --trace-sample as the fix).
std::string renderServeRequestText(const obs::JsonValue &Report,
                                   int RequestId, std::string *Error);

} // namespace pf::serve

#endif // PIMFLOW_SERVE_SERVEREPORT_H
