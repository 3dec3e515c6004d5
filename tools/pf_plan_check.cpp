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
///     every record (the full corruption surface of the format);
///   - re-serializing the parsed artifact reproduces the file byte for
///     byte (the round-trip invariant the test suite relies on);
///   - the plan is internally coherent: at least one segment, PredictedNs
///     equal to the sum of segment times (within float tolerance), every
///     decision carrying at least one candidate, and every segment node
///     covered by exactly one decision.
///
/// `--digest=<hex>` additionally requires the artifact's content address
/// (PlanKey::digest) to match — how ctest pins a golden fixture to the
/// plan it was generated from. Exit codes: 0 = valid, 1 = invalid,
/// 2 = usage/io error.
///
//===----------------------------------------------------------------------===//

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>
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

bool fail(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::fprintf(stderr, "pf_plan_check: ");
  std::vfprintf(stderr, Fmt, Args);
  std::fprintf(stderr, "\n");
  va_end(Args);
  return false;
}

/// The coherence checks beyond "it parses": the properties every plan the
/// search engine emits hold, so an artifact violating one was corrupted
/// in a way that kept the checksum intact (i.e. regenerated dishonestly).
bool checkCoherent(const PlanArtifact &A) {
  const ExecutionPlan &P = A.Plan;
  if (P.Segments.empty())
    return fail("plan has no segments");
  double SumNs = 0.0;
  for (const SegmentPlan &S : P.Segments) {
    if (S.Nodes.empty())
      return fail("segment with no nodes");
    SumNs += S.PredictedNs;
  }
  const double Tol = 1e-6 * std::max(1.0, std::fabs(P.PredictedNs));
  if (std::fabs(SumNs - P.PredictedNs) > Tol)
    return fail("predicted %.17g ns disagrees with segment sum %.17g ns",
                P.PredictedNs, SumNs);
  std::map<NodeId, int> DecisionCount;
  for (const SearchDecision &D : P.Decisions) {
    if (D.Candidates.empty())
      return fail("decision for node %d has no candidates",
                  static_cast<int>(D.Id));
    ++DecisionCount[D.Id];
  }
  for (const SegmentPlan &S : P.Segments)
    for (NodeId Id : S.Nodes) {
      auto It = DecisionCount.find(Id);
      if (It == DecisionCount.end())
        return fail("segment node %d has no decision record",
                    static_cast<int>(Id));
      if (It->second != 1)
        return fail("segment node %d has %d decision records",
                    static_cast<int>(Id), It->second);
    }
  return true;
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
  if (!checkCoherent(*A))
    return 1;
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
