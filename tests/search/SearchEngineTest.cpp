//===- tests/search/SearchEngineTest.cpp - Algorithm 1 tests ----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "search/SearchEngine.h"

#include <algorithm>
#include <cstdio>
#include <gtest/gtest.h>
#include <map>
#include <unistd.h>

#include "PlanFingerprint.h"
#include "core/PimFlow.h"
#include "ir/Builder.h"
#include "ir/ShapeInference.h"
#include "models/Zoo.h"

using namespace pf;

namespace {

SearchOptions optionsFor(bool Split, bool Pipeline, bool Offload) {
  SearchOptions O;
  O.AllowSplit = Split;
  O.AllowPipeline = Pipeline;
  O.AllowFullOffload = Offload;
  return O;
}

/// The number of profiler measurements the search issues: one GPU sample
/// per node, plus one PIM sample and the interior ratio grid per
/// PIM-candidate layer, plus one sample per consecutive pipeline chain.
size_t candidateCount(const Graph &G) {
  const std::vector<NodeId> Seq = G.topoOrder();
  size_t GridN = 0;
  for (double R = 0.1; R < 1.0 - 1e-9; R += 0.1)
    ++GridN;
  size_t Count = Seq.size();
  for (NodeId Id : Seq)
    if (isPimCandidate(G.node(Id)))
      Count += 1 + GridN;
  std::map<NodeId, size_t> Pos;
  for (size_t I = 0; I < Seq.size(); ++I)
    Pos[Seq[I]] = I;
  for (const PipelineCandidate &Cand : findPipelineCandidates(G)) {
    const size_t Begin = Pos.at(Cand.Chain.front());
    bool Consecutive = true;
    for (size_t I = 0; I < Cand.Chain.size(); ++I)
      Consecutive &=
          Begin + I < Seq.size() && Seq[Begin + I] == Cand.Chain[I];
    if (Consecutive)
      ++Count;
  }
  return Count;
}

} // namespace

/// The paper-model searches whose profiler bookkeeping is pinned below.
class SearchEngineModels : public ::testing::TestWithParam<const char *> {
protected:
  Profiler P{systemConfigFor(OffloadPolicy::PimFlow, {})};
  const SearchOptions Options = searchOptionsFor(OffloadPolicy::PimFlow, {});

  std::string search(const Graph &G) {
    return planFingerprint(SearchEngine(P, Options).search(G));
  }
};

TEST_P(SearchEngineModels, EveryCandidateIsOneProfilerHitOrMiss) {
  const Graph G = buildModel(GetParam());
  search(G);
  EXPECT_EQ(P.cacheHits() + P.cacheMisses(), candidateCount(G));
}

TEST_P(SearchEngineModels, WarmProfilerReplaysThePlanByteForByte) {
  // A second search on the same profiler is served entirely from its memo
  // and must choose the same plan at the same full-precision costs.
  const Graph G = buildModel(GetParam());
  const std::string Cold = search(G);
  const size_t Misses = P.cacheMisses();
  const size_t Hits = P.cacheHits();
  EXPECT_EQ(search(G), Cold);
  EXPECT_EQ(P.cacheMisses(), Misses);
  EXPECT_EQ(P.cacheHits() - Hits, candidateCount(G));
}

TEST_P(SearchEngineModels, SavedProfileCacheReplaysThePlan) {
  // The driver's profile_<net>.tsv round trip: a profiler that loads the
  // cold search's saved memo measures nothing and chooses the same plan.
  const Graph G = buildModel(GetParam());
  const std::string Cold = search(G);
  const std::string Path =
      ::testing::TempDir() +
      formatStr("pf_search_%s_%d.tsv", G.name().c_str(),
                static_cast<int>(getpid()));
  ASSERT_TRUE(P.saveCache(Path));
  Profiler Warm(systemConfigFor(OffloadPolicy::PimFlow, {}));
  ASSERT_TRUE(Warm.loadCache(Path));
  std::remove(Path.c_str());
  EXPECT_EQ(planFingerprint(SearchEngine(Warm, Options).search(G)), Cold);
  EXPECT_EQ(Warm.cacheMisses(), 0u);
  EXPECT_EQ(Warm.cacheHits(), candidateCount(G));
}

INSTANTIATE_TEST_SUITE_P(Models, SearchEngineModels,
                         ::testing::Values("toy", "mobilenet-v2",
                                           "mnasnet-1.0", "squeezenet-1.1"),
                         [](const auto &Info) {
                           std::string Name = Info.param;
                           for (char &C : Name)
                             if (C == '-' || C == '.')
                               C = '_';
                           return Name;
                         });

TEST(SearchEngineTest, RefinedSearchReplaysOnAWarmProfiler) {
  // --autotune's refinement samples go through the same memo as the
  // coarse grid: a repeated refined search measures nothing new.
  const Graph G = buildModel("toy");
  Profiler P(systemConfigFor(OffloadPolicy::PimFlow, {}));
  SearchOptions S = searchOptionsFor(OffloadPolicy::PimFlow, {});
  S.RefineRatios = true;
  const std::string Cold = planFingerprint(SearchEngine(P, S).search(G));
  const size_t Misses = P.cacheMisses();
  EXPECT_EQ(planFingerprint(SearchEngine(P, S).search(G)), Cold);
  EXPECT_EQ(P.cacheMisses(), Misses);
}

TEST(SearchEngineTest, GpuOnlySearchKeepsEverythingOnGpu) {
  Graph G = buildToy();
  Profiler P(SystemConfig::gpuOnly());
  SearchEngine S(P, optionsFor(false, false, false));
  ExecutionPlan Plan = S.search(G);
  for (const SegmentPlan &Seg : Plan.Segments)
    EXPECT_EQ(Seg.Mode, SegmentMode::GpuNode);
  // No PIM -> no candidate profiles: every node has only its GPU option.
  for (const SearchDecision &D : Plan.Decisions)
    EXPECT_FALSE(D.pimCandidate());
}

TEST(SearchEngineTest, SegmentsCoverAllNodesExactlyOnce) {
  Graph G = buildToy();
  Profiler P(SystemConfig::dual());
  SearchEngine S(P, optionsFor(true, true, true));
  ExecutionPlan Plan = S.search(G);
  std::vector<NodeId> Covered;
  for (const SegmentPlan &Seg : Plan.Segments)
    for (NodeId Id : Seg.Nodes)
      Covered.push_back(Id);
  std::vector<NodeId> Expected = G.topoOrder();
  std::sort(Covered.begin(), Covered.end());
  std::sort(Expected.begin(), Expected.end());
  EXPECT_EQ(Covered, Expected);
}

TEST(SearchEngineTest, ObjectiveEqualsSegmentSum) {
  Graph G = buildToy();
  Profiler P(SystemConfig::dual());
  SearchEngine S(P, optionsFor(true, true, true));
  ExecutionPlan Plan = S.search(G);
  double Sum = 0.0;
  for (const SegmentPlan &Seg : Plan.Segments)
    Sum += Seg.PredictedNs;
  EXPECT_NEAR(Plan.PredictedNs, Sum, 1.0);
}

TEST(SearchEngineTest, RicherOptionSetsNeverWorse) {
  // The DP objective is monotone in the option set (Newton++ <= options of
  // PIMFlow-md <= PIMFlow).
  Graph G = buildMobileNetV2();
  Profiler P(SystemConfig::dual());
  const double Offload =
      SearchEngine(P, optionsFor(false, false, true)).search(G).PredictedNs;
  const double Md =
      SearchEngine(P, optionsFor(true, false, true)).search(G).PredictedNs;
  const double Pl =
      SearchEngine(P, optionsFor(false, true, true)).search(G).PredictedNs;
  const double Full =
      SearchEngine(P, optionsFor(true, true, true)).search(G).PredictedNs;
  EXPECT_LE(Md, Offload + 1e-6);
  EXPECT_LE(Pl, Offload + 1e-6);
  EXPECT_LE(Full, Md + 1e-6);
  EXPECT_LE(Full, Pl + 1e-6);
}

TEST(SearchEngineTest, LayerProfilesRecorded) {
  Graph G = buildToy();
  Profiler P(SystemConfig::dual());
  SearchEngine S(P, optionsFor(true, false, true));
  ExecutionPlan Plan = S.search(G);
  // Toy has 2 pointwise convs + 1 regular conv + 1 FC as candidates.
  size_t Layers = 0;
  for (const SearchDecision &D : Plan.Decisions) {
    if (!D.pimCandidate())
      continue;
    ++Layers;
    const CandidateOption &Best = D.bestMdDp();
    EXPECT_GT(D.gpuOnlyNs(), 0.0);
    EXPECT_GT(D.pimNs(), 0.0);
    EXPECT_LE(Best.Ns, D.gpuOnlyNs());
    EXPECT_LE(Best.Ns, D.pimNs());
    EXPECT_GE(Best.RatioGpu, 0.0);
    EXPECT_LE(Best.RatioGpu, 1.0);
  }
  EXPECT_EQ(Layers, 4u);
}

TEST(SearchEngineTest, ApplyProducesValidAnnotatedGraph) {
  Graph G = buildToy();
  Profiler P(SystemConfig::dual());
  SearchEngine S(P, optionsFor(true, true, true));
  ExecutionPlan Plan = S.search(G);
  SearchEngine::apply(G, Plan);
  EXPECT_FALSE(G.validate().has_value());
  EXPECT_FALSE(inferShapes(G).has_value());
  // Applied MD-DP segments appear as split pairs.
  for (const SegmentPlan &Seg : Plan.Segments) {
    if (Seg.Mode != SegmentMode::MdDp)
      continue;
    EXPECT_TRUE(G.node(Seg.Nodes[0]).Dead);
  }
}

TEST(SearchEngineTest, FullOffloadDisallowedMeansNoPimAnnotation) {
  Graph G = buildToy();
  Profiler P(SystemConfig::dual());
  SearchEngine S(P, optionsFor(false, false, false));
  ExecutionPlan Plan = S.search(G);
  for (const SegmentPlan &Seg : Plan.Segments)
    EXPECT_NE(Seg.Mode, SegmentMode::FullPim);
}

TEST(SearchEngineTest, PipelineSegmentsMatchPatterns) {
  Graph G = buildMobileNetV2();
  Profiler P(SystemConfig::dual());
  SearchEngine S(P, optionsFor(false, true, true));
  ExecutionPlan Plan = S.search(G);
  int Pipelines = 0;
  for (const SegmentPlan &Seg : Plan.Segments)
    if (Seg.Mode == SegmentMode::Pipeline) {
      ++Pipelines;
      EXPECT_GE(Seg.Nodes.size(), 2u);
      EXPECT_EQ(Seg.Stages, 2);
    }
  EXPECT_GT(Pipelines, 0); // Mobile nets pipeline (Fig. 11).
}

TEST(SearchEngineTest, MnasNetDistributionHasSplitsAndOffloads) {
  // Table 2's shape: a mix of full offloads (ratio 0) and interior splits.
  Graph G = buildMnasNet();
  Profiler P(SystemConfig::dual());
  SearchEngine S(P, optionsFor(true, false, true));
  ExecutionPlan Plan = S.search(G);
  int FullPim = 0, Split = 0;
  for (const SegmentPlan &Seg : Plan.Segments) {
    FullPim += Seg.Mode == SegmentMode::FullPim;
    Split += Seg.Mode == SegmentMode::MdDp;
  }
  EXPECT_GT(FullPim + Split, 10);
  EXPECT_GT(Split, 0);
}

TEST(SearchEngineTest, CanApplyChecksTheConfigurationAndSearchOptions) {
  // A plan may use only what the configuration and search options of its
  // key allow: without PIM channels no pim, md-dp or pipeline segment, and
  // no segment of a mode the options exclude. Each offending segment is
  // one plan.mismatch.
  const Graph G = buildMobileNetV2();
  const SystemConfig Config = SystemConfig::dual();
  Profiler P(Config);
  const SearchOptions All = optionsFor(true, true, true);
  const ExecutionPlan Plan = SearchEngine(P, All).search(G);
  auto Segments = [&](SegmentMode M) {
    return static_cast<size_t>(
        std::count_if(Plan.Segments.begin(), Plan.Segments.end(),
                      [&](const SegmentPlan &S) { return S.Mode == M; }));
  };
  const size_t Pim = Segments(SegmentMode::FullPim);
  const size_t MdDp = Segments(SegmentMode::MdDp);
  const size_t Pipelines = Segments(SegmentMode::Pipeline);
  ASSERT_GT(Pim, 0u);
  ASSERT_GT(MdDp, 0u);
  ASSERT_GT(Pipelines, 0u);
  auto Mismatches = [&](const SystemConfig &C, const SearchOptions &S) {
    DiagnosticEngine DE;
    const bool Fits = SearchEngine::canApply(G, Plan, C, S, DE);
    EXPECT_EQ(Fits, DE.errorCount() == 0);
    for (const Diagnostic &D : DE.diagnostics())
      EXPECT_EQ(D.Code, DiagCode::PlanMismatch);
    return DE.errorCount();
  };
  EXPECT_EQ(Mismatches(Config, All), 0u);
  EXPECT_EQ(Mismatches(Config, optionsFor(false, true, true)), MdDp);
  EXPECT_EQ(Mismatches(Config, optionsFor(true, false, true)), Pipelines);
  EXPECT_EQ(Mismatches(Config, optionsFor(true, true, false)), Pim);
  EXPECT_EQ(Mismatches(SystemConfig::gpuOnly(), All),
            Pim + MdDp + Pipelines);
}
