//===- tests/integration/FuzzEquivalenceTest.cpp - random graphs -*- C++ -*-=//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-based testing of the compiler's correctness contract on
/// randomly generated CNN-like graphs: for any generated model, any random
/// sequence of MD-DP splits and pipelining applications, and the full
/// PIMFlow search itself, the transformed graph must validate and compute
/// exactly the original outputs; and a profiler memo shared across graphs
/// never changes the plan the search chooses.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "../support/RandomCnn.h"
#include "core/PimFlow.h"
#include "runtime/Interpreter.h"
#include "support/Format.h"
#include "support/Random.h"
#include "transform/Canonicalize.h"
#include "transform/MdDpSplitPass.h"
#include "transform/PatternMatch.h"
#include "transform/PipelinePass.h"

using namespace pf;

namespace {

/// Full-precision serialization of a search result, for byte-wise
/// plan comparison.
std::string planFingerprint(const ExecutionPlan &Plan) {
  std::string S;
  for (const SegmentPlan &Seg : Plan.Segments) {
    S += segmentModeName(Seg.Mode);
    for (NodeId Id : Seg.Nodes)
      S += formatStr(" n%lld", static_cast<long long>(Id));
    S += formatStr(" r%.17g st%d ns%.17g;", Seg.RatioGpu, Seg.Stages,
                   Seg.PredictedNs);
  }
  return S + formatStr("|total:%.17g", Plan.PredictedNs);
}

std::vector<Tensor> runGraph(const Graph &G, uint64_t Seed) {
  std::vector<Tensor> Inputs;
  for (ValueId In : G.graphInputs())
    Inputs.push_back(Interpreter::randomInput(G.value(In).Shape, Seed));
  return Interpreter(G).run(Inputs);
}

void expectEquivalent(const Graph &A, const Graph &B, uint64_t Seed) {
  auto OA = runGraph(A, Seed);
  auto OB = runGraph(B, Seed);
  ASSERT_EQ(OA.size(), OB.size());
  for (size_t I = 0; I < OA.size(); ++I) {
    ASSERT_EQ(OA[I].shape(), OB[I].shape());
    for (int64_t E = 0; E < OA[I].numElements(); ++E)
      ASSERT_EQ(OA[I].at(E), OB[I].at(E)) << "element " << E;
  }
}

} // namespace

class FuzzEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzEquivalence, RandomSplitsPreserveSemantics) {
  const uint64_t Seed = GetParam();
  const Graph Original = randomCnn(Seed);
  Graph G = Original;
  Rng R(Seed * 31 + 7);
  for (NodeId Id : Original.topoOrder()) {
    if (G.node(Id).Dead || !isPimCandidate(G.node(Id)))
      continue;
    if (R.nextBelow(3) == 0)
      continue; // Leave some layers untouched.
    const double Ratio = 0.1 * static_cast<double>(1 + R.nextBelow(9));
    applyMdDpSplit(G, Id, Ratio);
  }
  canonicalize(G);
  ASSERT_FALSE(G.validate().has_value());
  expectEquivalent(Original, G, Seed + 1);
}

TEST_P(FuzzEquivalence, RandomPipelinesPreserveSemantics) {
  const uint64_t Seed = GetParam();
  const Graph Original = randomCnn(Seed);
  Graph G = Original;
  Rng R(Seed * 77 + 3);
  // Apply every other matched candidate whose nodes are still live.
  for (const PipelineCandidate &Cand : findPipelineCandidates(Original)) {
    bool Live = true;
    for (NodeId Id : Cand.Chain)
      Live &= !G.node(Id).Dead;
    if (!Live || R.nextBelow(2) == 0)
      continue;
    PipelineSpec Spec;
    Spec.Chain = Cand.Chain;
    Spec.NumStages = 2 + static_cast<int>(R.nextBelow(2));
    if (!isPipelineableChain(G, Spec.Chain))
      continue;
    applyPipeline(G, Spec);
  }
  canonicalize(G);
  ASSERT_FALSE(G.validate().has_value());
  expectEquivalent(Original, G, Seed + 2);
}

TEST_P(FuzzEquivalence, FullPimFlowPreservesSemantics) {
  const uint64_t Seed = GetParam();
  const Graph Original = randomCnn(Seed);
  PimFlow Flow(OffloadPolicy::PimFlow);
  CompileResult R = Flow.compileAndRun(Original);
  ASSERT_FALSE(R.Transformed.validate().has_value());
  expectEquivalent(Original, R.Transformed, Seed + 3);
}

TEST_P(FuzzEquivalence, SharedProfilerMatchesFreshSearch) {
  // The profiler's memo is keyed by structure, so identical layers of
  // different graphs share one measurement. Warming the memo on another
  // random graph first must not change this graph's plan: a hit returns
  // only what a miss would have measured.
  const uint64_t Seed = GetParam();
  const Graph G = randomCnn(Seed);
  const SystemConfig Config = systemConfigFor(OffloadPolicy::PimFlow, {});
  const SearchOptions S = searchOptionsFor(OffloadPolicy::PimFlow, {});
  Profiler Fresh(Config);
  const std::string Expected =
      planFingerprint(SearchEngine(Fresh, S).search(G));

  Profiler Shared(Config);
  SearchEngine(Shared, S).search(randomCnn(Seed + 100));
  const size_t Hits = Shared.cacheHits();
  const size_t Misses = Shared.cacheMisses();
  EXPECT_EQ(planFingerprint(SearchEngine(Shared, S).search(G)), Expected);
  const size_t NewHits = Shared.cacheHits() - Hits;
  const size_t NewMisses = Shared.cacheMisses() - Misses;
  EXPECT_EQ(NewHits + NewMisses, Fresh.cacheHits() + Fresh.cacheMisses());
  EXPECT_LE(NewMisses, Fresh.cacheMisses());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEquivalence,
                         ::testing::Range<uint64_t>(1, 13));
