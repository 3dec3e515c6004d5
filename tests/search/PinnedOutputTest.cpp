//===- tests/search/PinnedOutputTest.cpp - pinned output bytes --*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Byte-level pins on the text the compiler writes and hashes: the plan
/// artifact of every paper model (plus resnet-18 and toy) under PIMFlow
/// and PIMFlow-md, the canonical graph hash of every zoo model, and the
/// profile log a resnet-50 search leaves behind (every memo key). The
/// round-trip suites compare a writer with its own reader, so they cannot
/// see a writer drift; these sizes and FNV-1a digests were recorded from
/// the printf-based writers, so any change in how a number or a key is
/// printed (precision, exponent form, sign of zero, field order) fails
/// here, and committed goldens, plan caches and profile logs keep hitting.
///
//===----------------------------------------------------------------------===//

#include "plan/PlanArtifact.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "core/PimFlow.h"
#include "models/Zoo.h"
#include "obs/Json.h"
#include "support/Format.h"

using namespace pf;

namespace {

struct PinnedPlan {
  const char *Model;
  OffloadPolicy Policy;
  int PimChannels; // Of 32 total.
  size_t Bytes;
  const char *Digest;
};

/// Renders a table row, so a failure prints the line to paste.
std::string row(const PinnedPlan &P, size_t Bytes, const std::string &Digest) {
  return formatStr("{\"%s\", OffloadPolicy::%s, %d, %zu, \"%s\"},", P.Model,
                   P.Policy == OffloadPolicy::PimFlow ? "PimFlow"
                                                      : "PimFlowMd",
                   P.PimChannels, Bytes, Digest.c_str());
}

} // namespace

TEST(PinnedOutput, PlanArtifactBytes) {
  const PinnedPlan Pins[] = {
      {"efficientnet-v1-b0", OffloadPolicy::PimFlow, 16, 60303,
       "c68a4b410cbd7cb1"},
      {"mobilenet-v2", OffloadPolicy::PimFlow, 16, 32723, "fac95974219d65cd"},
      {"mnasnet-1.0", OffloadPolicy::PimFlow, 16, 32657, "31f8c9150e740535"},
      {"resnet-50", OffloadPolicy::PimFlow, 16, 44132, "cc99b6edec4d3fcf"},
      {"vgg-16", OffloadPolicy::PimFlow, 16, 13330, "5b7c287260f35e00"},
      {"resnet-18", OffloadPolicy::PimFlow, 16, 17688, "87647200ec5c3877"},
      {"toy", OffloadPolicy::PimFlow, 16, 3807, "5adfe254fb67d0e1"},
      {"efficientnet-v1-b0", OffloadPolicy::PimFlowMd, 8, 59726,
       "03c475fa5dd6663f"},
      {"mobilenet-v2", OffloadPolicy::PimFlowMd, 8, 32595, "ea0b68356784f790"},
      {"mnasnet-1.0", OffloadPolicy::PimFlowMd, 8, 32614, "0e4af608bcb3f19c"},
      {"resnet-50", OffloadPolicy::PimFlowMd, 8, 42354, "6d53b16b3f98b1ed"},
      {"vgg-16", OffloadPolicy::PimFlowMd, 8, 13294, "a00faefdca634ee4"},
      {"resnet-18", OffloadPolicy::PimFlowMd, 8, 17198, "e0b71df7634f0347"},
      {"toy", OffloadPolicy::PimFlowMd, 8, 3859, "86c2ef7994e53101"},
  };
  for (const PinnedPlan &P : Pins) {
    const Graph M = buildModel(P.Model);
    PimFlowOptions O;
    O.PimChannels = P.PimChannels;
    PimFlow Flow(P.Policy, O);
    const std::string Text =
        serializePlanArtifact({Flow.planKey(M), Flow.plan(M)});
    const std::string Digest = fnv1a64Hex(Text);
    EXPECT_TRUE(Text.size() == P.Bytes && Digest == P.Digest)
        << "artifact bytes drifted; now " << row(P, Text.size(), Digest);
  }
}

TEST(PinnedOutput, CanonicalGraphHashOfEveryZooModel) {
  const std::pair<const char *, const char *> Pins[] = {
      {"efficientnet-v1-b0", "51f0e369aed1c596"},
      {"mobilenet-v2", "4dc22dcf5ee89cc6"},
      {"mnasnet-1.0", "bb7381245b9230b4"},
      {"resnet-50", "dcc3f6a70861b147"},
      {"vgg-16", "13991e1de46bbd4e"},
      {"alexnet", "889e1a1e0b89c196"},
      {"squeezenet-1.1", "eb79786279e83c3b"},
      {"resnet-18", "b4a4d048a8efe950"},
      {"resnet-34", "4c684c76ea435ae9"},
      {"densenet-121", "80574b3abce03f60"},
      {"efficientnet-v1-b1", "fa5bd6572bbec4c9"},
      {"efficientnet-v1-b2", "fbe8d8c45144d8c5"},
      {"efficientnet-v1-b3", "8bacf1fce587fd99"},
      {"efficientnet-v1-b4", "a13bcb3c90f37907"},
      {"efficientnet-v1-b5", "2759d2d231a78aff"},
      {"efficientnet-v1-b6", "2db9ee83402921b7"},
      {"bert", "dcafe5b640420179"},
      {"toy", "35a1d0e885bb263e"},
  };
  for (const auto &[Model, Hash] : Pins)
    EXPECT_EQ(canonicalGraphHash(buildModel(Model)), Hash) << Model;
}

TEST(PinnedOutput, ProfileLogOfAResNet50Search) {
  const Graph M = buildModel("resnet-50");
  PimFlow Flow(OffloadPolicy::PimFlow);
  Flow.plan(M);
  const std::string Path = ::testing::TempDir() + "pf_pinned_profile.tsv";
  ASSERT_TRUE(Flow.profiler().saveCache(Path));
  const std::optional<std::string> Text = obs::readTextFile(Path);
  std::remove(Path.c_str());
  ASSERT_TRUE(Text);
  EXPECT_EQ(Text->size(), 41462u);
  EXPECT_EQ(fnv1a64Hex(*Text), "8725825f3cdf68cb");
}
