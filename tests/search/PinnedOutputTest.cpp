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
/// profile logs cold searches leave behind (every memo key and sample
/// time). The round-trip suites compare a writer with its own reader, so
/// they cannot see a writer drift; these sizes and FNV-1a digests were
/// recorded from the printf-based writers, so any change in how a number
/// or a key is printed (precision, exponent form, sign of zero, field
/// order) fails here, and committed goldens, plan caches and profile logs
/// keep hitting. The profile logs of the paper models and bert under four
/// configurations were recorded while every sample still ran its
/// micrograph, so they also pin the priced samples to those times. The
/// resnet-50 and vgg-16 logs were re-recorded when pool rows gained their
/// window: only their MaxPool row names changed, no time.
///
//===----------------------------------------------------------------------===//

#include "plan/PlanArtifact.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "core/PimFlow.h"
#include "models/Zoo.h"
#include "obs/Json.h"
#include "support/Format.h"
#include "support/TextFile.h"

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

namespace {

/// A cold search's profile-log configuration: the policy, its PIM channels
/// of 32, and the two system switches the default run leaves alone.
struct ProfileConfig {
  const char *Name;
  OffloadPolicy Policy;
  int PimChannels;
  bool MemoryOptimizer;
  bool ModelContention;
};

} // namespace

TEST(PinnedOutput, ProfileLogs) {
  // Every memo key and measured time a cold search writes, for the five
  // paper models and bert under four configurations: the default, the
  // pipeline-free Newton+ on few channels, MD-DP on many channels with the
  // naive back-end (every slice and join copies), and the contention
  // model's second scheduling pass.
  const ProfileConfig Configs[] = {
      {"pimflow-16", OffloadPolicy::PimFlow, 16, true, false},
      {"newton+-4", OffloadPolicy::NewtonPlus, 4, true, false},
      {"pimflow-md-28-no-memopt", OffloadPolicy::PimFlowMd, 28, false,
       false},
      {"pimflow-16-contention", OffloadPolicy::PimFlow, 16, true, true},
  };
  struct Pin {
    const char *Config;
    const char *Model;
    size_t Bytes;
    const char *Digest;
  };
  const Pin Pins[] = {
      {"pimflow-16", "efficientnet-v1-b0", 66200, "a1ddfa627871dd9b"},
      {"pimflow-16", "mobilenet-v2", 44735, "1704b4158431745a"},
      {"pimflow-16", "mnasnet-1.0", 47163, "df8f6b5dec2ca649"},
      {"pimflow-16", "resnet-50", 41482, "3fbef134703313ce"},
      {"pimflow-16", "vgg-16", 21777, "789e8ba66aa3d17d"},
      {"pimflow-16", "bert", 4217, "de355bb1ac2cf26b"},
      {"newton+-4", "efficientnet-v1-b0", 16314, "fcd3c18d1253efcd"},
      {"newton+-4", "mobilenet-v2", 8825, "4d64c8eed56e0cec"},
      {"newton+-4", "mnasnet-1.0", 9496, "6549afa0ca64e43e"},
      {"newton+-4", "resnet-50", 8697, "2acafeb32d0439b8"},
      {"newton+-4", "vgg-16", 4808, "631ba4eae89edd8f"},
      {"newton+-4", "bert", 1179, "04c10069214d2ddb"},
      {"pimflow-md-28-no-memopt", "efficientnet-v1-b0", 63584,
       "7ca6a5963c872b26"},
      {"pimflow-md-28-no-memopt", "mobilenet-v2", 36305, "716a848e76820b24"},
      {"pimflow-md-28-no-memopt", "mnasnet-1.0", 38376, "809a6c5b04d8e7b0"},
      {"pimflow-md-28-no-memopt", "resnet-50", 42186, "9ef52e9416d7d2f8"},
      {"pimflow-md-28-no-memopt", "vgg-16", 22161, "9e39785a4ce4cd0f"},
      {"pimflow-md-28-no-memopt", "bert", 4207, "b7f260b7f3ff3fc4"},
      {"pimflow-16-contention", "efficientnet-v1-b0", 66186,
       "1ddf311b3b5b8d33"},
      {"pimflow-16-contention", "mobilenet-v2", 44728, "c0c32f61f39b31d9"},
      {"pimflow-16-contention", "mnasnet-1.0", 47154, "9dc651bcf01e8b02"},
      {"pimflow-16-contention", "resnet-50", 41491, "d832b6df41bda7e7"},
      {"pimflow-16-contention", "vgg-16", 21801, "2ac33df1da32c1d7"},
      {"pimflow-16-contention", "bert", 4226, "662c105098fb24c7"},
  };
  size_t Checked = 0;
  for (const ProfileConfig &C : Configs)
    for (const char *Model : {"efficientnet-v1-b0", "mobilenet-v2",
                              "mnasnet-1.0", "resnet-50", "vgg-16",
                              "bert"}) {
      PimFlowOptions O;
      O.PimChannels = C.PimChannels;
      O.MemoryOptimizer = C.MemoryOptimizer;
      O.ModelContention = C.ModelContention;
      PimFlow Flow(C.Policy, O);
      Flow.plan(buildModel(Model));
      const std::string Path = ::testing::TempDir() + "pf_pinned_" +
                               C.Name + "_" + Model + ".tsv";
      ASSERT_TRUE(Flow.profiler().saveCache(Path));
      const std::optional<std::string> Text = readTextFile(Path);
      std::remove(Path.c_str());
      ASSERT_TRUE(Text);
      const std::string Digest = fnv1a64Hex(*Text);
      const Pin *P = nullptr;
      for (const Pin &Q : Pins)
        if (std::string_view(Q.Config) == C.Name &&
            std::string_view(Q.Model) == Model)
          P = &Q;
      EXPECT_TRUE(P && Text->size() == P->Bytes && Digest == P->Digest)
          << "profile log drifted; now {\"" << C.Name << "\", \"" << Model
          << "\", " << Text->size() << ", \"" << Digest << "\"},";
      ++Checked;
    }
  EXPECT_EQ(Checked, std::size(Pins));
}

TEST(PinnedOutput, ProfileLogOfAResNet50Search) {
  const Graph M = buildModel("resnet-50");
  PimFlow Flow(OffloadPolicy::PimFlow);
  Flow.plan(M);
  const std::string Path = ::testing::TempDir() + "pf_pinned_profile.tsv";
  ASSERT_TRUE(Flow.profiler().saveCache(Path));
  const std::optional<std::string> Text = readTextFile(Path);
  std::remove(Path.c_str());
  ASSERT_TRUE(Text);
  EXPECT_EQ(Text->size(), 41482u);
  EXPECT_EQ(fnv1a64Hex(*Text), "3fbef134703313ce");
}
