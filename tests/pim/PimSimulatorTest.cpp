//===- tests/pim/PimSimulatorTest.cpp - PIM cycle simulator -----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pim/PimSimulator.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "SimExpect.h"
#include "obs/Scope.h"

using namespace pf;

namespace {

PimConfig baseConfig() {
  PimConfig C;
  C.NumGlobalBuffers = 1;
  C.GwriteLatencyHiding = false;
  return C;
}

ChannelTrace singleBlock(std::vector<PimCommand> Pattern,
                         int64_t Repeats = 1) {
  ChannelTrace T;
  T.Blocks.push_back(CommandBlock{std::move(Pattern), Repeats});
  return T;
}

/// run() computed the plain way: every non-empty channel simulated and
/// counted on its own. Assumes the fetch-supply floor does not bind.
PimRunStats perChannelReference(const PimSimulator &Sim,
                                const DeviceTrace &T) {
  PimRunStats R;
  for (size_t Ch = 0; Ch < T.Channels.size(); ++Ch) {
    const ChannelTrace &Channel = T.Channels[Ch];
    if (Channel.empty())
      continue;
    const int64_t Cycles = Sim.simulateChannel(Channel);
    R.Cycles = std::max(R.Cycles, Cycles);
    R.BusyCycleSum += Cycles;
    ++R.ActiveChannels;
    for (const CommandBlock &B : Channel.Blocks)
      for (const PimCommand &Cmd : B.Pattern)
        switch (Cmd.Kind) {
        case PimCmdKind::Gwrite:
        case PimCmdKind::Gwrite2:
        case PimCmdKind::Gwrite4:
          R.GwriteCmds += B.Repeats;
          R.GwriteBursts +=
              B.Repeats * Cmd.Count *
              (Cmd.Kind == PimCmdKind::Gwrite    ? 1
               : Cmd.Kind == PimCmdKind::Gwrite2 ? 2
                                                 : 4);
          break;
        case PimCmdKind::GAct:
          R.GActs += B.Repeats * Cmd.Count;
          break;
        case PimCmdKind::Comp:
          R.CompCmds += B.Repeats;
          R.CompColumns += B.Repeats * Cmd.Count;
          break;
        case PimCmdKind::ReadRes:
          R.ReadResCmds += B.Repeats * Cmd.Count;
          break;
        }
    ChannelPhaseCycles P = phaseCyclesOf(Sim.config(), Channel);
    P.Channel = static_cast<int>(Ch);
    P.CompletionCycles = Cycles;
    R.ChannelPhases.push_back(P);
  }
  R.Ns = Sim.config().cyclesToNs(R.Cycles);
  return R;
}

/// A device trace whose first \p Copies channels hold \p Channel.
DeviceTrace replicated(const ChannelTrace &Channel, int Copies) {
  DeviceTrace T(Copies);
  for (ChannelTrace &C : T.Channels)
    C = Channel;
  return T;
}

/// The counters and channel-cycle telemetry a run leaves in a fresh scope.
struct RunTelemetry {
  std::vector<std::pair<std::string, int64_t>> Counters;
  int64_t ChannelSamples = 0;
  double ChannelCycleSum = 0.0;
  int64_t SimCycles = 0;
};

template <typename Fn> RunTelemetry telemetryOf(Fn &&Run) {
  obs::Scope S;
  {
    obs::ScopeGuard G(S);
    Run();
  }
  RunTelemetry T;
  T.Counters = S.registry().counterSnapshot();
  for (const auto &[Name, Q] : S.registry().histogramSnapshot())
    if (Name == "pim.channel_cycles") {
      T.ChannelSamples = Q.Count;
      T.ChannelCycleSum = Q.Sum;
    }
  T.SimCycles = S.registry().cycles();
  return T;
}

} // namespace

TEST(PimConfigTest, DerivedQuantities) {
  PimConfig C;
  EXPECT_EQ(C.elementsPerComp(), 16);       // 256 bits of fp16.
  EXPECT_EQ(C.elementsPerRow(), 32 * 16);   // 32 column I/Os per row.
  EXPECT_EQ(C.macsPerComp(), 256);          // 16 banks x 16 multipliers.
  C.NumGlobalBuffers = 1;
  EXPECT_EQ(C.bufferElements(), 2048);      // 4KB of fp16.
  C.NumGlobalBuffers = 4;
  EXPECT_EQ(C.bufferElements(), 512);       // Partitioned capacity.
}

TEST(PimConfigTest, MechanismPresets) {
  EXPECT_EQ(PimConfig::newtonPlus().NumGlobalBuffers, 1);
  EXPECT_FALSE(PimConfig::newtonPlus().GwriteLatencyHiding);
  EXPECT_EQ(PimConfig::newtonPlusPlus().NumGlobalBuffers, 4);
  EXPECT_TRUE(PimConfig::newtonPlusPlus().GwriteLatencyHiding);
}

TEST(PimSimulatorTest, SingleCommandLatencies) {
  PimConfig C = baseConfig();
  PimSimulator Sim(C);
  EXPECT_EQ(Sim.simulateChannel(singleBlock({PimCommand::gact()})), C.TGact);
  EXPECT_EQ(Sim.simulateChannel(singleBlock({PimCommand::comp(1)})),
            C.TComp);
  EXPECT_EQ(Sim.simulateChannel(singleBlock({PimCommand::readRes()})),
            C.TReadRes);
  EXPECT_EQ(Sim.simulateChannel(singleBlock({PimCommand::gwrite(1, 1)})),
            C.TGwrite);
}

TEST(PimSimulatorTest, GwriteBurstsPipeline) {
  PimConfig C = baseConfig();
  PimSimulator Sim(C);
  // n bursts: first pays TGwrite, rest stream at TCcdl.
  EXPECT_EQ(Sim.simulateChannel(singleBlock({PimCommand::gwrite(5, 1)})),
            C.TGwrite + 4 * C.TCcdl);
  // GWRITE_4 carries 4x the data in one command.
  EXPECT_EQ(Sim.simulateChannel(singleBlock({PimCommand::gwrite(5, 4)})),
            C.TGwrite + 19 * C.TCcdl);
}

TEST(PimSimulatorTest, CompWaitsForGwriteAndGact) {
  PimConfig C = baseConfig();
  PimSimulator Sim(C);
  const int64_t Cycles = Sim.simulateChannel(singleBlock(
      {PimCommand::gwrite(4, 1), PimCommand::gact(),
       PimCommand::comp(10)}));
  // Serialized without hiding: gwrite + gact + comps.
  EXPECT_EQ(Cycles, (C.TGwrite + 3 * C.TCcdl) + C.TGact + 10 * C.TComp);
}

TEST(PimSimulatorTest, LatencyHidingOverlapsGwriteWithGact) {
  PimConfig NoHide = baseConfig();
  PimConfig Hide = baseConfig();
  Hide.GwriteLatencyHiding = true;
  const auto Pattern = singleBlock(
      {PimCommand::gwrite(16, 1), PimCommand::gact(), PimCommand::comp(4)});
  const int64_t Serial = PimSimulator(NoHide).simulateChannel(Pattern);
  const int64_t Overlapped = PimSimulator(Hide).simulateChannel(Pattern);
  EXPECT_LT(Overlapped, Serial);
  // With hiding, G_ACT (11 cycles) runs fully under the 41-cycle GWRITE:
  // COMP starts when the slower of the two finishes.
  EXPECT_EQ(Overlapped, (Hide.TGwrite + 15 * Hide.TCcdl) + 4 * Hide.TComp);
}

TEST(PimSimulatorTest, HidingNeverSlowsDown) {
  // Property: enabling latency hiding can only shorten any trace.
  PimConfig NoHide = baseConfig();
  PimConfig Hide = baseConfig();
  Hide.GwriteLatencyHiding = true;
  for (int Bursts = 1; Bursts <= 64; Bursts *= 2)
    for (int Comps = 1; Comps <= 256; Comps *= 4) {
      const auto T = singleBlock({PimCommand::gwrite(Bursts, 1),
                                  PimCommand::gact(),
                                  PimCommand::comp(Comps),
                                  PimCommand::readRes()},
                                 8);
      EXPECT_LE(PimSimulator(Hide).simulateChannel(T),
                PimSimulator(NoHide).simulateChannel(T))
          << "bursts=" << Bursts << " comps=" << Comps;
    }
}

TEST(PimSimulatorTest, BlockRepeatMatchesUnrolled) {
  // The steady-state extrapolation must be cycle-identical to unrolling.
  PimConfig Configs[2] = {baseConfig(), PimConfig::newtonPlusPlus()};
  for (const PimConfig &C : Configs) {
    PimSimulator Sim(C);
    const std::vector<PimCommand> Pattern = {
        PimCommand::gwrite(9, 1), PimCommand::gact(2),
        PimCommand::comp(17), PimCommand::readRes(3)};
    for (int64_t R : {1, 2, 3, 7, 50}) {
      ChannelTrace Rolled = singleBlock(Pattern, R);
      ChannelTrace Unrolled;
      for (int64_t I = 0; I < R; ++I)
        Unrolled.Blocks.push_back(CommandBlock{Pattern, 1});
      EXPECT_EQ(Sim.simulateChannel(Rolled),
                Sim.simulateChannel(Unrolled))
          << "repeats=" << R << " hiding=" << C.GwriteLatencyHiding;
    }
  }
}

TEST(PimSimulatorTest, MakespanIsMaxOverChannels) {
  PimConfig C = baseConfig();
  C.Channels = 4;
  PimSimulator Sim(C);
  DeviceTrace T(4);
  T.Channels[0] = singleBlock({PimCommand::comp(10)});
  T.Channels[2] = singleBlock({PimCommand::comp(100)});
  PimRunStats Stats = Sim.run(T);
  EXPECT_EQ(Stats.Cycles, 100 * C.TComp);
  EXPECT_EQ(Stats.ActiveChannels, 2);
  EXPECT_EQ(Stats.CompColumns, 110);
}

TEST(PimSimulatorTest, CommandCounting) {
  PimConfig C = baseConfig();
  PimSimulator Sim(C);
  DeviceTrace T(1);
  T.Channels[0] = singleBlock({PimCommand::gwrite(3, 1),
                               PimCommand::gact(2), PimCommand::comp(5),
                               PimCommand::readRes(4)},
                              10);
  PimRunStats Stats = Sim.run(T);
  EXPECT_EQ(Stats.GwriteCmds, 10);
  EXPECT_EQ(Stats.GwriteBursts, 30);
  EXPECT_EQ(Stats.GActs, 20);
  EXPECT_EQ(Stats.CompColumns, 50);
  EXPECT_EQ(Stats.ReadResCmds, 40);
}

TEST(PimSimulatorTest, FetchSupplyCapsThroughput) {
  PimConfig C = baseConfig();
  C.FetchSupplyGBs = 1.0; // Absurdly small supply.
  PimSimulator Sim(C);
  DeviceTrace T(1);
  T.Channels[0] = singleBlock({PimCommand::gwrite(1000, 1)});
  PimRunStats Stats = Sim.run(T);
  // 32000 bytes at 1 GB/s = 32 us.
  EXPECT_NEAR(Stats.Ns, 32000.0, 1.0);
}

TEST(PimSimulatorTest, RepeatedChannelsReuseOneSimulation) {
  PimConfig C = PimConfig::newtonPlusPlus();
  PimSimulator Sim(C);
  const ChannelTrace A = singleBlock({PimCommand::gwrite(9, 4),
                                      PimCommand::gact(2),
                                      PimCommand::comp(17),
                                      PimCommand::readRes(3)},
                                     40);
  ChannelTrace B = singleBlock({PimCommand::gwrite(2, 1),
                                PimCommand::comp(5)},
                               7);
  B.Blocks.push_back(CommandBlock{{PimCommand::readRes(2)}, 3});
  // Repeated, distinct and empty channels out of order: A A - A B B A.
  DeviceTrace T(7);
  for (int Ch : {0, 1, 3, 6})
    T.Channels[static_cast<size_t>(Ch)] = A;
  T.Channels[4] = B;
  T.Channels[5] = B;
  ASSERT_NE(Sim.simulateChannel(A), Sim.simulateChannel(B));

  SCOPED_TRACE("run vs per-channel reference");
  expectSameRunStats(Sim.run(T), perChannelReference(Sim, T));
}

TEST(PimSimulatorTest, ReplicatedChannelMatchesRunOnCopies) {
  PimConfig Floored = baseConfig();
  Floored.FetchSupplyGBs = 1.0; // As in FetchSupplyCapsThroughput.
  const std::pair<PimConfig, ChannelTrace> Cases[] = {
      {PimConfig::newtonPlusPlus(),
       singleBlock({PimCommand::gwrite(9, 4), PimCommand::gact(2),
                    PimCommand::comp(17), PimCommand::readRes(3)},
                   40)},
      {Floored, singleBlock({PimCommand::gwrite(1000, 1)})},
  };
  for (const auto &[C, Channel] : Cases) {
    PimSimulator Sim(C);
    for (int Copies : {1, 3, 16, 32}) {
      SCOPED_TRACE(testing::Message() << "copies=" << Copies
                                      << " supply=" << C.FetchSupplyGBs);
      const DeviceTrace Trace = replicated(Channel, Copies);
      PimRunStats Want, Got;
      const RunTelemetry WantT = telemetryOf([&] { Want = Sim.run(Trace); });
      const RunTelemetry GotT =
          telemetryOf([&] { Got = Sim.runReplicated(Channel, Copies); });
      expectSameRunStats(Got, Want);
      EXPECT_EQ(GotT.Counters, WantT.Counters);
      EXPECT_EQ(GotT.ChannelSamples, Copies);
      EXPECT_EQ(GotT.ChannelSamples, WantT.ChannelSamples);
      EXPECT_EQ(GotT.ChannelCycleSum, WantT.ChannelCycleSum);
      EXPECT_EQ(GotT.SimCycles, WantT.SimCycles);
      // The floored case must actually be bound by the fetch supply.
      if (C.FetchSupplyGBs == 1.0) {
        EXPECT_GT(Got.Ns, C.cyclesToNs(Sim.simulateChannel(Channel)));
      }
    }
  }
}

TEST(PimSimulatorTest, EnergyScalesWithWork) {
  PimConfig C = baseConfig();
  PimSimulator Sim(C);
  DeviceTrace Small(1), Large(1);
  Small.Channels[0] = singleBlock({PimCommand::comp(10)});
  Large.Channels[0] = singleBlock({PimCommand::comp(1000)});
  const double ESmall = Sim.energyJ(Sim.run(Small), 10 * 256);
  const double ELarge = Sim.energyJ(Sim.run(Large), 1000 * 256);
  EXPECT_GT(ELarge, 50.0 * ESmall);
}

TEST(PimSimulatorTest, CyclesToNsUsesClock) {
  PimConfig C;
  C.ClockGhz = 2.0;
  EXPECT_DOUBLE_EQ(C.cyclesToNs(1000), 500.0);
}
