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

#include "core/PimFlow.h"
#include "ir/Builder.h"
#include "runtime/Interpreter.h"
#include "support/Format.h"
#include "support/Random.h"
#include "transform/Canonicalize.h"
#include "transform/MdDpSplitPass.h"
#include "transform/PatternMatch.h"
#include "transform/PipelinePass.h"

using namespace pf;

namespace {

/// Generates a random CNN-like graph: a chain of conv / depthwise /
/// pointwise / pool / activation layers with occasional residual adds,
/// ending in a classifier. Shapes stay small so the reference interpreter
/// is fast.
Graph randomCnn(uint64_t Seed) {
  Rng R(Seed);
  GraphBuilder B(formatStr("fuzz-%llu", (unsigned long long)Seed));
  int64_t H = 16 + static_cast<int64_t>(R.nextBelow(3)) * 8; // 16/24/32
  ValueId X = B.input("x", TensorShape{1, H, H, 3});
  X = B.relu(B.conv2d(X, 8, 3, 1, 1));

  const int Layers = 3 + static_cast<int>(R.nextBelow(5));
  ValueId Residual = InvalidValue;
  for (int L = 0; L < Layers; ++L) {
    const int64_t C = B.graph().value(X).Shape.dim(3);
    const int64_t CurH = B.graph().value(X).Shape.dim(1);
    switch (R.nextBelow(6)) {
    case 0: { // pointwise expand/project
      const int64_t Cout = 4 + static_cast<int64_t>(R.nextBelow(4)) * 4;
      X = B.conv2d(X, Cout, 1, 1, 0);
      break;
    }
    case 1: // depthwise
      X = B.dwConv(X, 3, 1, 1);
      break;
    case 2: { // dense conv, sometimes strided
      const int64_t Stride = CurH >= 8 && R.nextBelow(2) ? 2 : 1;
      X = B.conv2d(X, C, 3, Stride, 1, 1, R.nextBelow(2) == 0);
      break;
    }
    case 3: // activation
      X = R.nextBelow(2) ? B.relu6(X) : B.silu(X);
      break;
    case 4: // residual bracket
      if (Residual != InvalidValue &&
          B.graph().value(Residual).Shape == B.graph().value(X).Shape) {
        X = B.add(X, Residual);
        Residual = InvalidValue;
      } else {
        Residual = X;
      }
      break;
    case 5: // pool (keep spatial extent workable)
      if (CurH >= 8)
        X = B.maxPool(X, 2, 2);
      break;
    }
  }
  X = B.globalAvgPool(X);
  X = B.flatten(X);
  X = B.gemm(X, 10);
  B.output(X);
  return B.take();
}

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
