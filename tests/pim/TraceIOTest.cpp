//===- tests/pim/TraceIOTest.cpp - trace IO & cross-validation --*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pim/TraceIO.h"

#include <filesystem>

#include <gtest/gtest.h>

#include "codegen/CommandGenerator.h"
#include "pim/PimSimulator.h"
#include "pim/ReferenceSimulator.h"
#include "support/Random.h"

using namespace pf;

namespace {

DeviceTrace sampleTrace() {
  DeviceTrace T(4);
  CommandBlock B;
  B.Pattern = {PimCommand::gwrite(9, 4), PimCommand::gact(2),
               PimCommand::comp(72), PimCommand::readRes(4)};
  B.Repeats = 49;
  T.Channels[0].Blocks.push_back(B);
  T.Channels[2].Blocks.push_back(CommandBlock{{PimCommand::comp(5)}, 1});
  return T;
}

/// Generates a random but well-formed channel trace.
ChannelTrace randomTrace(uint64_t Seed) {
  Rng R(Seed);
  ChannelTrace T;
  const int Blocks = 1 + static_cast<int>(R.nextBelow(3));
  for (int B = 0; B < Blocks; ++B) {
    CommandBlock Block;
    Block.Repeats = 1 + static_cast<int64_t>(R.nextBelow(20));
    const int Cmds = 1 + static_cast<int>(R.nextBelow(8));
    for (int I = 0; I < Cmds; ++I) {
      switch (R.nextBelow(4)) {
      case 0:
        Block.Pattern.push_back(PimCommand::gwrite(
            1 + static_cast<int64_t>(R.nextBelow(16)),
            R.nextBelow(2) ? 4 : 1));
        break;
      case 1:
        Block.Pattern.push_back(
            PimCommand::gact(1 + static_cast<int64_t>(R.nextBelow(4))));
        break;
      case 2:
        Block.Pattern.push_back(
            PimCommand::comp(1 + static_cast<int64_t>(R.nextBelow(100))));
        break;
      case 3:
        Block.Pattern.push_back(PimCommand::readRes(
            1 + static_cast<int64_t>(R.nextBelow(8))));
        break;
      }
    }
    T.Blocks.push_back(std::move(Block));
  }
  return T;
}

} // namespace

TEST(TraceIOTest, ExpandCounts) {
  ChannelTrace T;
  T.Blocks.push_back(CommandBlock{{PimCommand::comp(3)}, 5});
  T.Blocks.push_back(
      CommandBlock{{PimCommand::gact(), PimCommand::readRes()}, 2});
  const auto Flat = expandTrace(T);
  EXPECT_EQ(Flat.size(), 5u + 4u);
  EXPECT_EQ(Flat[0].Kind, PimCmdKind::Comp);
  EXPECT_EQ(Flat.back().Kind, PimCmdKind::ReadRes);
}

TEST(TraceIOTest, DumpParseRoundTrip) {
  const DeviceTrace T = sampleTrace();
  auto Parsed = parseTrace(dumpTrace(T));
  ASSERT_TRUE(std::holds_alternative<DeviceTrace>(Parsed))
      << std::get<std::string>(Parsed);
  const DeviceTrace &P = std::get<DeviceTrace>(Parsed);
  ASSERT_EQ(P.Channels.size(), T.Channels.size());
  EXPECT_EQ(P.numActiveChannels(), T.numActiveChannels());
  // Identical timing under the simulator is the semantic equality check.
  PimSimulator Sim(PimConfig::newtonPlusPlus());
  EXPECT_EQ(Sim.run(P).Cycles, Sim.run(T).Cycles);
  EXPECT_EQ(Sim.run(P).CompColumns, Sim.run(T).CompColumns);
  // And the dump itself is stable.
  EXPECT_EQ(dumpTrace(P), dumpTrace(T));
}

// A buffered write to a full device succeeds and only the flush at close
// fails, so a save that ignores fclose reports success.
TEST(TraceIOTest, SaveToFullDeviceFails) {
  if (!std::filesystem::exists("/dev/full"))
    GTEST_SKIP() << "no /dev/full on this host";
  EXPECT_FALSE(saveTrace(sampleTrace(), "/dev/full"));
}

TEST(TraceIOTest, GeneratedKernelTraceRoundTrips) {
  PimCommandGenerator Gen(PimConfig::newtonPlusPlus(), CodegenOptions{});
  PimKernelSpec Spec;
  Spec.M = 144;
  Spec.K = 24;
  Spec.NumVectors = 3136;
  const PimKernelPlan Plan = Gen.plan(Spec);
  auto Parsed = parseTrace(dumpTrace(Plan.Trace));
  ASSERT_TRUE(std::holds_alternative<DeviceTrace>(Parsed));
  PimSimulator Sim(PimConfig::newtonPlusPlus());
  EXPECT_EQ(Sim.run(std::get<DeviceTrace>(Parsed)).Cycles,
            Plan.Stats.Cycles);
}

TEST(TraceIOTest, ParseRejections) {
  EXPECT_TRUE(std::holds_alternative<std::string>(parseTrace("garbage")));
  EXPECT_TRUE(std::holds_alternative<std::string>(
      parseTrace("pimflow-trace v1 channels=2\nblock repeat=1\n"
                 "  COMP cols=1\nend\n"))); // Block before channel.
  EXPECT_TRUE(std::holds_alternative<std::string>(
      parseTrace("pimflow-trace v1 channels=2\nchannel 0\n"
                 "block repeat=1\n  FROB n=1\nend\n")));
  EXPECT_TRUE(std::holds_alternative<std::string>(
      parseTrace("pimflow-trace v1 channels=2\nchannel 5\n")));
  EXPECT_TRUE(std::holds_alternative<std::string>(
      parseTrace("pimflow-trace v1 channels=2\nchannel 0\n"
                 "block repeat=1\n  COMP cols=3\n"))); // Unterminated.
}

namespace {

/// Expects parseTrace(Text) to fail with \p Fragment in the message.
void expectTraceError(const std::string &Text,
                      const std::string &Fragment) {
  auto R = parseTrace(Text);
  ASSERT_TRUE(std::holds_alternative<std::string>(R))
      << "accepted: " << Text;
  EXPECT_NE(std::get<std::string>(R).find(Fragment), std::string::npos)
      << "got: " << std::get<std::string>(R);
}

} // namespace

TEST(TraceIOTest, RejectsJunkChannelCountWithLineNumber) {
  // Offset arithmetic used to read "channels=12x" as 12 silently.
  expectTraceError("pimflow-trace v1 channels=12x\n",
                   "line 1: channel count '12x'");
}

TEST(TraceIOTest, RejectsHeaderWithTrailingFields) {
  expectTraceError("pimflow-trace v1 channels=2 extra\n",
                   "line 1: header must be exactly");
}

TEST(TraceIOTest, RejectsImplausibleChannelCount) {
  expectTraceError("pimflow-trace v1 channels=0\n",
                   "implausible channel count 0");
  expectTraceError("pimflow-trace v1 channels=100000\n",
                   "implausible channel count");
}

TEST(TraceIOTest, RejectsJunkChannelIndexWithLineNumber) {
  expectTraceError("pimflow-trace v1 channels=2\nchannel one\n",
                   "line 2: channel index 'one'");
}

TEST(TraceIOTest, RejectsOutOfRangeChannelWithBound) {
  expectTraceError("pimflow-trace v1 channels=2\nchannel 2\n",
                   "channel index 2 out of range [0, 2)");
}

TEST(TraceIOTest, RejectsJunkRepeatWithLineNumber) {
  expectTraceError("pimflow-trace v1 channels=2\nchannel 0\n"
                   "block repeat=9x\n",
                   "line 3: repeat count '9x'");
  expectTraceError("pimflow-trace v1 channels=2\nchannel 0\n"
                   "block repeat=0\n",
                   "non-positive repeat count");
}

TEST(TraceIOTest, RejectsWrongCountKey) {
  // COMP carries cols=, not n=.
  expectTraceError("pimflow-trace v1 channels=2\nchannel 0\n"
                   "block repeat=1\n  COMP n=3\nend\n",
                   "COMP expects 'cols=', got 'n='");
}

TEST(TraceIOTest, RejectsJunkCommandCountWithLineNumber) {
  expectTraceError("pimflow-trace v1 channels=2\nchannel 0\n"
                   "block repeat=1\n  G_ACT n=2q\nend\n",
                   "line 4");
  expectTraceError("pimflow-trace v1 channels=2\nchannel 0\n"
                   "block repeat=1\n  G_ACT n=-2\nend\n",
                   "not a positive integer");
}

TEST(TraceIOTest, RejectsCommandFieldCountMismatch) {
  expectTraceError("pimflow-trace v1 channels=2\nchannel 0\n"
                   "block repeat=1\n  GWRITE bursts=1 extra=2\nend\n",
                   "expected 2 fields, got 3");
}

TEST(TraceIOTest, RejectsEmptyBlock) {
  expectTraceError("pimflow-trace v1 channels=2\nchannel 0\n"
                   "block repeat=1\nend\n",
                   "empty block");
}

//===----------------------------------------------------------------------===
// Cross-validation: the fast block simulator (steady-state extrapolation)
// must agree cycle-for-cycle with the unit-event reference model.
//===----------------------------------------------------------------------===

class SimulatorCrossCheck : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimulatorCrossCheck, BlockAndReferenceAgree) {
  const ChannelTrace T = randomTrace(GetParam());
  for (bool Hiding : {false, true}) {
    PimConfig C =
        Hiding ? PimConfig::newtonPlusPlus() : PimConfig::newtonPlus();
    PimSimulator Fast(C);
    EXPECT_EQ(Fast.simulateChannel(T), referenceSimulateChannel(C, T))
        << "seed=" << GetParam() << " hiding=" << Hiding;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorCrossCheck,
                         ::testing::Range<uint64_t>(1, 41));

TEST(SimulatorCrossCheck, RealKernelPlansAgree) {
  PimCommandGenerator Gen(PimConfig::newtonPlusPlus(), CodegenOptions{});
  for (const auto &[M, K, V] :
       {std::tuple<int64_t, int64_t, int64_t>{144, 24, 3136},
        {4096, 25088, 1},
        {64, 576, 196},
        {1000, 1280, 1}}) {
    PimKernelSpec Spec;
    Spec.M = M;
    Spec.K = K;
    Spec.NumVectors = V;
    const PimKernelPlan Plan = Gen.plan(Spec);
    PimSimulator Fast(Gen.config());
    for (const ChannelTrace &Channel : Plan.Trace.Channels) {
      if (Channel.empty())
        continue;
      EXPECT_EQ(Fast.simulateChannel(Channel),
                referenceSimulateChannel(Gen.config(), Channel))
          << "M=" << M << " K=" << K << " V=" << V;
      break; // Channels are identical; one suffices.
    }
  }
}
