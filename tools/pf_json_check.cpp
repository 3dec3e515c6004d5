//===- tools/pf_json_check.cpp - Observability output validator -*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses a JSON file produced by the observability exporters and checks its
/// shape, for CTest smoke tests and shell pipelines:
///
///   pf_json_check --chrome trace.json   # Chrome trace: semantic checks
///   pf_json_check file.json             # any well-formed JSON document
///
/// --chrome validates the trace semantically, not just syntactically
/// (obs/TraceCheck.h): every event must carry a string `ph` and numeric
/// `pid`/`tid`; non-metadata events need a non-negative `ts` and any
/// `dur` must be non-negative; per-lane `B`/`E` spans must nest (name-
/// matched, none left open); and every flow id must resolve to an
/// `s`/`f` pair. pf_trace_check adds the serve-specific request-lane
/// laws on top of the same checker.
///
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <cstring>
#include <string>

#include "obs/Json.h"
#include "obs/TraceCheck.h"

using namespace pf;

int main(int Argc, char **Argv) {
  const char *Path = nullptr;
  bool WantChrome = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--chrome") == 0)
      WantChrome = true;
    else if (Argv[I][0] == '-') {
      std::fprintf(stderr, "error: unknown flag '%s'\n", Argv[I]);
      return 2;
    } else
      Path = Argv[I];
  }
  if (!Path) {
    std::fprintf(stderr,
                 "usage: pf_json_check [--chrome] <file.json>\n");
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

  if (WantChrome) {
    std::string CheckError;
    obs::TraceCheckSummary Summary;
    if (!obs::checkChromeTrace(*Doc, CheckError, &Summary)) {
      std::fprintf(stderr, "error: %s: %s\n", Path, CheckError.c_str());
      return 1;
    }
    std::printf("%s: valid Chrome trace, %zu events (%zu span pairs, "
                "%zu flow chains)\n",
                Path, Summary.Events, Summary.PairedSpans,
                Summary.FlowChains);
  } else {
    std::printf("%s: well-formed JSON\n", Path);
  }
  return 0;
}
