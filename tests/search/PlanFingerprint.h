//===- tests/search/PlanFingerprint.h - full-precision plan text -*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A full-precision fingerprint of an ExecutionPlan (segments, each
/// candidate layer's best-MD-DP view, the decision trail with its derived
/// fields, and the DP objective), printed through printf independently of
/// the artifact writer, so tests can compare two plans without trusting
/// the format under test.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_TESTS_SEARCH_PLANFINGERPRINT_H
#define PIMFLOW_TESTS_SEARCH_PLANFINGERPRINT_H

#include <string>

#include "search/SearchEngine.h"
#include "support/Format.h"

namespace pf {

/// Serializes every decision and cost of \p Plan at full precision,
/// decision trail included.
inline std::string planFingerprint(const ExecutionPlan &Plan) {
  std::string S;
  for (const SegmentPlan &Seg : Plan.Segments) {
    S += segmentModeName(Seg.Mode);
    for (NodeId Id : Seg.Nodes)
      S += formatStr(" n%lld", static_cast<long long>(Id));
    S += formatStr(" r%.17g st%d pat%d ns%.17g;", Seg.RatioGpu, Seg.Stages,
                   static_cast<int>(Seg.Pattern), Seg.PredictedNs);
  }
  S += "|layers:";
  for (const SearchDecision &D : Plan.Decisions)
    if (D.pimCandidate())
      S += formatStr("n%lld g%.17g p%.17g m%.17g r%.17g;",
                     static_cast<long long>(D.Id), D.gpuOnlyNs(), D.pimNs(),
                     D.bestMdDp().Ns, D.bestMdDp().RatioGpu);
  S += "|decisions:";
  for (const SearchDecision &D : Plan.Decisions) {
    S += formatStr("n%lld c%d m%s r%.17g ns%.17g g%.17g[",
                   static_cast<long long>(D.Id), D.pimCandidate() ? 1 : 0,
                   segmentModeName(D.ChosenMode), D.ChosenRatioGpu,
                   D.ChosenNs, D.gpuOnlyNs());
    for (const CandidateOption &C : D.Candidates)
      S += formatStr("%s:%.17g:%.17g,", segmentModeName(C.Mode), C.RatioGpu,
                     C.Ns);
    S += "];";
  }
  S += formatStr("|total:%.17g", Plan.PredictedNs);
  return S;
}

} // namespace pf

#endif // PIMFLOW_TESTS_SEARCH_PLANFINGERPRINT_H
