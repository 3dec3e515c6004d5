//===- tools/pf_plan_check.cpp - Plan artifact validator --------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates a serialized plan artifact written by `pimflow compile
/// --plan-out=<path>`, for CTest golden tests and ci.sh tier 7 (the plan
/// sibling of pf_metrics_check):
///
///   pf_plan_check [--digest=<hex>] <artifact.plan>
///
/// Checks:
///   - the artifact parses: magic, version, byte count, checksum, and
///     every record, decisions in segment order included (the full
///     corruption surface of the format);
///   - re-serializing the parsed artifact reproduces the file byte for
///     byte (the round-trip invariant the test suite relies on).
///
/// `--digest=<hex>` additionally requires the artifact's content address
/// (PlanKey::digest) to match — how ctest pins a golden fixture to the
/// plan it was generated from. Exit codes: 0 = valid, 1 = invalid,
/// 2 = usage/io error.
///
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <string>

#include "plan/PlanArtifact.h"
#include "support/StringUtil.h"
#include "support/TextFile.h"

using namespace pf;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pf_plan_check [--digest=<hex>] <artifact.plan>\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Path, WantDigest;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (startsWith(Arg, "--digest="))
      WantDigest = Arg.substr(Arg.find('=') + 1);
    else if (startsWith(Arg, "-"))
      return usage();
    else if (Path.empty())
      Path = Arg;
    else
      return usage();
  }
  if (Path.empty())
    return usage();

  const std::optional<std::string> Read = readTextFile(Path);
  if (!Read) {
    std::fprintf(stderr, "pf_plan_check: cannot read %s\n", Path.c_str());
    return 2;
  }
  const std::string &Text = *Read;

  DiagnosticEngine DE;
  auto A = parsePlanArtifact(Text, DE);
  if (!A) {
    std::fprintf(stderr, "pf_plan_check: %s is invalid:\n%s", Path.c_str(),
                 DE.render().c_str());
    return 1;
  }
  if (serializePlanArtifact(*A) != Text) {
    std::fprintf(stderr,
                 "pf_plan_check: %s does not round-trip byte-identically\n",
                 Path.c_str());
    return 1;
  }
  if (!WantDigest.empty() && A->Key.digest() != WantDigest) {
    std::fprintf(stderr,
                 "pf_plan_check: %s has content address %s, expected %s\n",
                 Path.c_str(), A->Key.digest().c_str(), WantDigest.c_str());
    return 1;
  }
  std::printf("%s: valid plan artifact (%zu segments, %zu decisions, key "
              "%s)\n",
              Path.c_str(), A->Plan.Segments.size(),
              A->Plan.Decisions.size(), A->Key.digest().c_str());
  return 0;
}
