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
/// window: only their MaxPool row names changed, no time. Every log was
/// re-recorded when rows took the plan key's configuration signature as
/// their prefix, and every artifact when the format became v2 (no derived
/// records): only the prefixes and the dropped records changed.
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
      {"efficientnet-v1-b0", OffloadPolicy::PimFlow, 16, 43912,
       "079efd5271b08f99"},
      {"mobilenet-v2", OffloadPolicy::PimFlow, 16, 23334, "8f40eaeb1fc0b0e9"},
      {"mnasnet-1.0", OffloadPolicy::PimFlow, 16, 23232, "7d7796d0bbbd4024"},
      {"resnet-50", OffloadPolicy::PimFlow, 16, 31977, "072207961ee266dc"},
      {"vgg-16", OffloadPolicy::PimFlow, 16, 9645, "9fabf3121eda11a9"},
      {"resnet-18", OffloadPolicy::PimFlow, 16, 12971, "9a0b4b89aad1f99b"},
      {"toy", OffloadPolicy::PimFlow, 16, 2881, "1e2c20b828b3c58b"},
      {"efficientnet-v1-b0", OffloadPolicy::PimFlowMd, 8, 43146,
       "08c61da3d59396aa"},
      {"mobilenet-v2", OffloadPolicy::PimFlowMd, 8, 23207, "bf21160298789822"},
      {"mnasnet-1.0", OffloadPolicy::PimFlowMd, 8, 23045, "cdebb763cc82c550"},
      {"resnet-50", OffloadPolicy::PimFlowMd, 8, 30411, "ed69303f2c3792a6"},
      {"vgg-16", OffloadPolicy::PimFlowMd, 8, 9516, "8e73705c3a297712"},
      {"resnet-18", OffloadPolicy::PimFlowMd, 8, 12451, "68c4f07adaa651c5"},
      {"toy", OffloadPolicy::PimFlowMd, 8, 2860, "fa881455a0fa9d93"},
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
      {"pimflow-16", "efficientnet-v1-b0", 114145, "1a4f9ac04174575f"},
      {"pimflow-16", "mobilenet-v2", 75103, "3b70b3a357e485e3"},
      {"pimflow-16", "mnasnet-1.0", 79195, "cb50449a6b109a81"},
      {"pimflow-16", "resnet-50", 70914, "4291f5ed5a4cff58"},
      {"pimflow-16", "vgg-16", 36753, "f0a39e6be07991a4"},
      {"pimflow-16", "bert", 8273, "8baea9011a213a5b"},
      {"newton+-4", "efficientnet-v1-b0", 30354, "b1bf859a32e8841e"},
      {"newton+-4", "mobilenet-v2", 16210, "b8a957e4d2f9e36a"},
      {"newton+-4", "mnasnet-1.0", 17401, "37f1557d6dcec1f3"},
      {"newton+-4", "resnet-50", 15666, "e5a8504ff7eeace9"},
      {"newton+-4", "vgg-16", 8552, "acf3bcf256950413"},
      {"newton+-4", "bert", 2427, "6a4ce0840e747a23"},
      {"pimflow-md-28-no-memopt", "efficientnet-v1-b0", 110385,
       "2da9bbd9f00489ed"},
      {"pimflow-md-28-no-memopt", "mobilenet-v2", 63345, "2a692eb3d98d2579"},
      {"pimflow-md-28-no-memopt", "mnasnet-1.0", 66872, "66d60ea715d15203"},
      {"pimflow-md-28-no-memopt", "resnet-50", 71618, "42782db8056e4cc6"},
      {"pimflow-md-28-no-memopt", "vgg-16", 37137, "1f1f4f53d26fcfd8"},
      {"pimflow-md-28-no-memopt", "bert", 8263, "be5a326699aaa7a1"},
      {"pimflow-16-contention", "efficientnet-v1-b0", 114131,
       "927427d84ced115c"},
      {"pimflow-16-contention", "mobilenet-v2", 75096, "9678249acfacc8fc"},
      {"pimflow-16-contention", "mnasnet-1.0", 79186, "6f0ce05a1329e5b1"},
      {"pimflow-16-contention", "resnet-50", 70923, "fd078e7a85f34884"},
      {"pimflow-16-contention", "vgg-16", 36777, "f903de4c42046c78"},
      {"pimflow-16-contention", "bert", 8282, "d01d2e492c276123"},
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
  EXPECT_EQ(Text->size(), 70914u);
  EXPECT_EQ(fnv1a64Hex(*Text), "4291f5ed5a4cff58");
}
