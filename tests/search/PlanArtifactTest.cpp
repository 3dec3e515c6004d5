//===- tests/search/PlanArtifactTest.cpp - round-trip properties -*- C++-*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The plan artifact's serialization contract, across the model zoo:
/// serialize → parse → re-serialize is byte-identical, a parsed plan is
/// indistinguishable from the search result it came from (same
/// full-precision fingerprint), and replaying a deserialized plan through
/// PimFlow::executePlan produces exactly the timeline and cost a fresh
/// compileAndRun produces — the property `pimflow run --plan` rides on.
///
//===----------------------------------------------------------------------===//

#include "plan/PlanArtifact.h"

#include <gtest/gtest.h>

#include "core/PimFlow.h"
#include "models/Zoo.h"
#include "PlanFingerprint.h"

using namespace pf;

namespace {

PlanArtifact compileArtifact(const std::string &Model) {
  const Graph G = buildModel(Model);
  Profiler P(systemConfigFor(OffloadPolicy::PimFlow, {}));
  const SearchOptions S = searchOptionsFor(OffloadPolicy::PimFlow, {});
  PlanArtifact A;
  A.Key = makePlanKey(G, systemConfigFor(OffloadPolicy::PimFlow, {}), S,
                      /*FaultFloor=*/1);
  A.Plan = SearchEngine(P, S).search(G);
  return A;
}

} // namespace

class PlanArtifactRoundTrip : public ::testing::TestWithParam<const char *> {
};

TEST_P(PlanArtifactRoundTrip, SerializeParseReserializeIsByteIdentical) {
  const PlanArtifact A = compileArtifact(GetParam());
  const std::string Text = serializePlanArtifact(A);

  DiagnosticEngine DE;
  const auto Parsed = parsePlanArtifact(Text, DE);
  ASSERT_TRUE(Parsed) << DE.render();
  EXPECT_FALSE(DE.hasErrors());
  EXPECT_EQ(serializePlanArtifact(*Parsed), Text);
}

TEST_P(PlanArtifactRoundTrip, ParsedPlanIsIndistinguishableFromSearched) {
  const PlanArtifact A = compileArtifact(GetParam());
  DiagnosticEngine DE;
  const auto Parsed = parsePlanArtifact(serializePlanArtifact(A), DE);
  ASSERT_TRUE(Parsed) << DE.render();
  EXPECT_EQ(Parsed->Key, A.Key);
  EXPECT_EQ(planFingerprint(Parsed->Plan), planFingerprint(A.Plan));
}

TEST_P(PlanArtifactRoundTrip, ReplayedPlanMatchesFreshCompileExactly) {
  const Graph G = buildModel(GetParam());
  PimFlow Fresh(OffloadPolicy::PimFlow);
  const CompileResult R = Fresh.compileAndRun(G);

  // Round-trip the fresh plan through the on-disk format, then execute it
  // in a brand-new facade whose profiler has never measured anything.
  DiagnosticEngine DE;
  const auto Parsed =
      parsePlanArtifact(serializePlanArtifact({Fresh.planKey(G), R.Plan}),
                        DE);
  ASSERT_TRUE(Parsed) << DE.render();
  PimFlow Replay(OffloadPolicy::PimFlow);
  ASSERT_TRUE(validatePlanKey(Parsed->Key, Replay.planKey(G), DE))
      << DE.render();
  const CompileResult RR = Replay.executePlan(G, Parsed->Plan);

  EXPECT_EQ(planFingerprint(RR.Plan), planFingerprint(R.Plan));
  EXPECT_EQ(RR.endToEndNs(), R.endToEndNs());
  EXPECT_EQ(RR.energyJ(), R.energyJ());
  EXPECT_EQ(RR.ConvLayerNs, R.ConvLayerNs);
  EXPECT_EQ(RR.FcLayerNs, R.FcLayerNs);
  // The replay ran no search and issued no profiler measurement.
  EXPECT_EQ(Replay.profiler().cacheHits() + Replay.profiler().cacheMisses(),
            0u);
}

INSTANTIATE_TEST_SUITE_P(Models, PlanArtifactRoundTrip,
                         ::testing::Values("toy", "mobilenet-v2",
                                           "mnasnet-1.0", "squeezenet-1.1"),
                         [](const auto &Info) {
                           std::string Name = Info.param;
                           for (char &C : Name)
                             if (C == '-' || C == '.')
                               C = '_';
                           return Name;
                         });

TEST(PlanArtifact, SaveLoadRoundTripsThroughDisk) {
  const PlanArtifact A = compileArtifact("toy");
  const std::string Path = ::testing::TempDir() + "pf_plan_roundtrip.plan";
  ASSERT_TRUE(savePlanArtifact(A, Path));

  DiagnosticEngine DE;
  const auto Loaded = loadPlanArtifact(Path, DE);
  ASSERT_TRUE(Loaded) << DE.render();
  EXPECT_EQ(Loaded->Key, A.Key);
  EXPECT_EQ(serializePlanArtifact(*Loaded), serializePlanArtifact(A));
  std::remove(Path.c_str());
}

TEST(PlanArtifact, LoadOfMissingFileIsPlanCorrupt) {
  DiagnosticEngine DE;
  EXPECT_FALSE(
      loadPlanArtifact(::testing::TempDir() + "pf_no_such.plan", DE));
  EXPECT_TRUE(DE.hasCode(DiagCode::PlanCorrupt));
}

TEST(PlanArtifact, DigestIs16HexAndTracksEveryKeyField) {
  PlanKey K{"g", "c", "s", 1};
  EXPECT_EQ(K.digest().size(), 16u);
  EXPECT_EQ(K.digest().find_first_not_of("0123456789abcdef"),
            std::string::npos);
  EXPECT_EQ(K.digest(), (PlanKey{"g", "c", "s", 1}).digest());
  EXPECT_NE(K.digest(), (PlanKey{"G", "c", "s", 1}).digest());
  EXPECT_NE(K.digest(), (PlanKey{"g", "C", "s", 1}).digest());
  EXPECT_NE(K.digest(), (PlanKey{"g", "c", "S", 1}).digest());
  EXPECT_NE(K.digest(), (PlanKey{"g", "c", "s", 2}).digest());
}

TEST(PlanArtifact, GraphHashSeparatesModelsAndTracksEdits) {
  const Graph A = buildModel("toy");
  const Graph B = buildModel("mnasnet-1.0");
  EXPECT_EQ(canonicalGraphHash(A), canonicalGraphHash(buildModel("toy")));
  EXPECT_NE(canonicalGraphHash(A), canonicalGraphHash(B));
}

TEST(PlanArtifact, SearchSigTracksEveryOption) {
  const SearchOptions A = searchOptionsFor(OffloadPolicy::PimFlow, {});
  SearchOptions B = A;
  B.AllowPipeline = !B.AllowPipeline;
  EXPECT_NE(searchOptionsPlanSig(A), searchOptionsPlanSig(B));
  B = A;
  B.PipelineStages += 1;
  EXPECT_NE(searchOptionsPlanSig(A), searchOptionsPlanSig(B));
  B = A;
  B.RefineRatios = !B.RefineRatios;
  EXPECT_NE(searchOptionsPlanSig(A), searchOptionsPlanSig(B));
}

TEST(PlanArtifact, ConfigSigTracksProfiledHardwareKnobs) {
  const SystemConfig A = systemConfigFor(OffloadPolicy::PimFlow, {});
  PimFlowOptions O;
  O.PimChannels = 8;
  EXPECT_NE(systemConfigPlanSig(A),
            systemConfigPlanSig(systemConfigFor(OffloadPolicy::PimFlow, O)));
  O = {};
  O.MemoryOptimizer = false;
  EXPECT_NE(systemConfigPlanSig(A),
            systemConfigPlanSig(systemConfigFor(OffloadPolicy::PimFlow, O)));
  O = {};
  O.NumGlobalBuffers = 1;
  EXPECT_NE(systemConfigPlanSig(A),
            systemConfigPlanSig(systemConfigFor(OffloadPolicy::PimFlow, O)));
}

TEST(PlanArtifact, ValidatePlanKeyNamesEveryDifferingField) {
  const PlanKey Live{"g", "c", "s", 1};
  {
    DiagnosticEngine DE;
    EXPECT_TRUE(validatePlanKey(Live, Live, DE));
    EXPECT_FALSE(DE.hasErrors());
  }
  {
    DiagnosticEngine DE;
    EXPECT_FALSE(validatePlanKey(PlanKey{"x", "y", "s", 2}, Live, DE));
    EXPECT_TRUE(DE.hasCode(DiagCode::PlanMismatch));
    // One diagnostic per differing field: graph, config, fault floor.
    EXPECT_EQ(DE.errorCount(), 3u);
  }
}
