//===- tools/pf_trace_check.cpp - Serve request-trace validator -*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates a `pimflow serve --trace-out` document, for the ci.sh serve
/// tracing tier and shell pipelines:
///
///   pf_trace_check trace.json
///   pf_trace_check --min-requests=8 trace.json
///
/// Runs the shared Chrome-trace semantic checks (obs/TraceCheck.h: field
/// presence, per-lane B/E nesting, flow-id resolution), then enforces the
/// serve request-lane laws on top (docs/INTERNALS.md section 15):
///
///  - every request lane (pid 3 tid = request id) opens exactly one root
///    `request` span — no more, no fewer;
///  - every root span carries a `trace_id` arg;
///  - with --min-requests=N, at least N distinct request lanes exist
///    (proof that sampling actually selected something).
///
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>

#include "obs/Json.h"
#include "obs/TraceCheck.h"
#include "support/StringUtil.h"

using namespace pf;

int main(int Argc, char **Argv) {
  const char *Path = nullptr;
  int64_t MinRequests = -1;
  for (int I = 1; I < Argc; ++I) {
    if (std::strncmp(Argv[I], "--min-requests=", 15) == 0) {
      const std::optional<int64_t> Min = parseInt(Argv[I] + 15);
      if (!Min || *Min < 0) {
        std::fprintf(stderr, "error: bad --min-requests value '%s'\n",
                     Argv[I] + 15);
        return 2;
      }
      MinRequests = *Min;
    } else if (Argv[I][0] == '-') {
      std::fprintf(stderr, "error: unknown flag '%s'\n", Argv[I]);
      return 2;
    } else
      Path = Argv[I];
  }
  if (!Path) {
    std::fprintf(stderr,
                 "usage: pf_trace_check [--min-requests=N] <trace.json>\n");
    return 2;
  }

  const auto Text = obs::readTextFile(Path);
  if (!Text) {
    std::fprintf(stderr, "error: cannot read %s\n", Path);
    return 1;
  }
  std::string Error;
  const auto Doc = obs::JsonValue::parse(*Text, &Error);
  if (!Doc) {
    std::fprintf(stderr, "error: %s: %s\n", Path, Error.c_str());
    return 1;
  }

  obs::TraceCheckSummary Summary;
  if (!obs::checkChromeTrace(*Doc, Error, &Summary)) {
    std::fprintf(stderr, "error: %s: %s\n", Path, Error.c_str());
    return 1;
  }

  // Serve layer: one root `request` span per request lane, each with a
  // trace id.
  const obs::JsonValue *Events = Doc->find("traceEvents");
  std::map<long long, size_t> RootsPerLane;
  for (size_t I = 0; I < Events->Array.size(); ++I) {
    const obs::JsonValue &E = Events->Array[I];
    const obs::JsonValue *Ph = E.find("ph");
    const obs::JsonValue *Cat = E.find("cat");
    if (!Ph || Ph->Str != "B" || !Cat || !Cat->isString() ||
        Cat->Str != "serve.request")
      continue;
    // checkChromeTrace admitted only integer tids within +-2^53.
    const long long Tid =
        static_cast<long long>(E.numberOr("tid", -1.0));
    ++RootsPerLane[Tid];
    const obs::JsonValue *Args = E.find("args");
    const obs::JsonValue *TraceId =
        Args ? Args->find("trace_id") : nullptr;
    if (!TraceId || !TraceId->isString() || TraceId->Str.size() != 16) {
      std::fprintf(stderr,
                   "error: %s: traceEvents[%zu]: request root on tid %lld "
                   "lacks a 16-hex 'trace_id' arg\n",
                   Path, I, Tid);
      return 1;
    }
    if (static_cast<long long>(E.numberOr("pid", -1.0)) != 3) {
      std::fprintf(stderr,
                   "error: %s: traceEvents[%zu]: serve.request root off "
                   "the request process (pid 3)\n",
                   Path, I);
      return 1;
    }
  }
  for (const auto &[Tid, Count] : RootsPerLane)
    if (Count != 1) {
      std::fprintf(stderr,
                   "error: %s: request lane tid %lld has %zu root spans "
                   "(want exactly 1)\n",
                   Path, Tid, Count);
      return 1;
    }
  if (MinRequests >= 0 &&
      RootsPerLane.size() < static_cast<size_t>(MinRequests)) {
    std::fprintf(stderr,
                 "error: %s: %zu request lanes, want at least %lld\n", Path,
                 RootsPerLane.size(), static_cast<long long>(MinRequests));
    return 1;
  }

  std::printf("%s: valid serve trace, %zu events, %zu request lanes, "
              "%zu span pairs, %zu flow chains\n",
              Path, Summary.Events, RootsPerLane.size(),
              Summary.PairedSpans, Summary.FlowChains);
  return 0;
}
