//===- tests/pim/FaultModelTest.cpp - fault schedule tests ------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pim/FaultModel.h"

#include <gtest/gtest.h>

#include "codegen/CommandGenerator.h"
#include "codegen/PimKernelSpec.h"
#include "pim/PimSimulator.h"

using namespace pf;

namespace {

/// A representative offloaded kernel trace: plan a modest GEMM over the
/// configured channel group.
PimKernelPlan planGemm(const PimConfig &C) {
  PimCommandGenerator Gen(C, CodegenOptions{});
  PimKernelSpec Spec;
  Spec.M = 128;
  Spec.K = 256;
  Spec.NumVectors = 64;
  return Gen.plan(Spec);
}

PimConfig channels(int N) {
  PimConfig C = PimConfig::newtonPlusPlus();
  C.Channels = N;
  return C;
}

} // namespace

TEST(FaultModelTest, ParsesEveryEntryKind) {
  DiagnosticEngine DE;
  auto M = FaultModel::parse("dead:3,stall:1,slow:2:4.5,comp:0:8:2,"
                             "readres:5:0:1",
                             DE);
  ASSERT_TRUE(M.has_value());
  EXPECT_FALSE(DE.hasErrors());
  EXPECT_EQ(M->faultCount(), 5);
  EXPECT_TRUE(M->channelDead(3));
  EXPECT_FALSE(M->channelDead(2));
  EXPECT_TRUE(M->channelStalled(1));
  EXPECT_DOUBLE_EQ(M->slowFactor(2), 4.5);
  EXPECT_DOUBLE_EQ(M->slowFactor(3), 1.0);
  ASSERT_EQ(M->transients().size(), 2u);
  EXPECT_EQ(M->transients()[0].Kind, PimCmdKind::Comp);
  EXPECT_EQ(M->transients()[1].Kind, PimCmdKind::ReadRes);
}

TEST(FaultModelTest, EmptySpecYieldsEmptyModel) {
  DiagnosticEngine DE;
  auto M = FaultModel::parse("", DE);
  ASSERT_TRUE(M.has_value());
  EXPECT_TRUE(M->empty());
}

TEST(FaultModelTest, MalformedSpecsProduceCodedDiagnostics) {
  for (const char *Bad :
       {"dead", "dead:x", "dead:-1", "slow:0:0.5", "slow:0:abc", "comp:0:1",
        "readres:0:1:0", "bogus:1", "slow:0:1e9", "slow:0:nan"}) {
    DiagnosticEngine DE;
    EXPECT_FALSE(FaultModel::parse(Bad, DE).has_value()) << Bad;
    EXPECT_TRUE(DE.hasErrors()) << Bad;
    EXPECT_NE(DE.render().find("fault.bad-spec"), std::string::npos) << Bad;
  }
}

TEST(FaultModelTest, ChaosIsDeterministicPerSeed) {
  for (uint64_t Seed = 0; Seed < 32; ++Seed) {
    const FaultModel A = FaultModel::chaos(Seed, 16);
    const FaultModel B = FaultModel::chaos(Seed, 16);
    EXPECT_EQ(A.describe(), B.describe()) << Seed;
    EXPECT_GE(A.faultCount(), 1) << Seed;
    EXPECT_LE(A.faultCount(), 3) << Seed;
  }
  // Different seeds should not all collapse onto one schedule.
  EXPECT_NE(FaultModel::chaos(1, 16).describe(),
            FaultModel::chaos(2, 16).describe());
}

TEST(FaultModelTest, SurvivorsExcludeDeadAndStalled) {
  FaultModel M;
  M.addDead(0);
  M.addStalled(2);
  M.addSlow(3, 2.0);
  const std::vector<int> S = M.survivors(5);
  EXPECT_EQ(S, (std::vector<int>{1, 3, 4}));
}

TEST(FaultModelTest, CompactedModelFollowsChannels) {
  FaultModel M;
  M.addDead(1);
  M.addSlow(2, 3.0);
  M.addTransient(TransientFault{3, PimCmdKind::Comp, 5, 2});
  const std::vector<int> S = M.survivors(4); // {0, 2, 3}
  const FaultModel C = M.compactedFor(S);
  // Channel 2 -> index 1, channel 3 -> index 2; dead entry vanished.
  EXPECT_EQ(C.faultCount(), 2);
  EXPECT_FALSE(C.channelDead(0));
  EXPECT_DOUBLE_EQ(C.slowFactor(1), 3.0);
  ASSERT_EQ(C.transients().size(), 1u);
  EXPECT_EQ(C.transients()[0].Channel, 2);
}

TEST(FaultModelTest, RetryCostGrowsExponentially) {
  RetryPolicy P;
  P.BackoffBaseCycles = 10;
  P.BackoffMultiplier = 2;
  // attempt 1: cmd + 10; attempt 2: cmd + 20; attempt 3: cmd + 40.
  EXPECT_EQ(P.retryCostCycles(1, 100), 110);
  EXPECT_EQ(P.retryCostCycles(2, 100), 230);
  EXPECT_EQ(P.retryCostCycles(3, 100), 370);
  EXPECT_EQ(P.retryCostCycles(0, 100), 0);
}

TEST(FaultRunTest, NoFaultsMatchesPlainRun) {
  const PimConfig C = channels(8);
  const PimKernelPlan Plan = planGemm(C);
  PimSimulator Sim(C);
  const PimRunStats Base = Sim.run(Plan.Trace);
  const FaultyRunStats FS =
      Sim.runWithFaults(Plan.Trace, FaultModel{}, RetryPolicy{});
  EXPECT_EQ(FS.Stats.Cycles, Base.Cycles);
  EXPECT_DOUBLE_EQ(FS.Stats.Ns, Base.Ns);
  EXPECT_FALSE(FS.anyPersistent());
  EXPECT_FALSE(FS.degraded());
  EXPECT_EQ(FS.TotalRetries, 0);
}

TEST(FaultRunTest, DeadChannelIsPersistent) {
  const PimConfig C = channels(8);
  const PimKernelPlan Plan = planGemm(C);
  PimSimulator Sim(C);
  FaultModel M;
  M.addDead(0);
  const FaultyRunStats FS = Sim.runWithFaults(Plan.Trace, M, RetryPolicy{});
  EXPECT_TRUE(FS.anyPersistent());
  ASSERT_FALSE(FS.Outcomes.empty());
  EXPECT_EQ(FS.Outcomes[0].Health, ChannelHealth::Dead);
  EXPECT_EQ(FS.Outcomes[0].Cycles, 0);
}

TEST(FaultRunTest, SlowChannelInflatesMakespan) {
  const PimConfig C = channels(8);
  const PimKernelPlan Plan = planGemm(C);
  PimSimulator Sim(C);
  FaultModel M;
  M.addSlow(0, 4.0);
  const FaultyRunStats FS = Sim.runWithFaults(Plan.Trace, M, RetryPolicy{});
  EXPECT_FALSE(FS.anyPersistent());
  EXPECT_TRUE(FS.degraded());
  EXPECT_GT(FS.Stats.Cycles, Sim.run(Plan.Trace).Cycles);
}

TEST(FaultRunTest, TransientFaultCostsBoundedRetries) {
  const PimConfig C = channels(8);
  const PimKernelPlan Plan = planGemm(C);
  PimSimulator Sim(C);
  FaultModel M;
  M.addTransient(TransientFault{0, PimCmdKind::Comp, 0, 2});
  RetryPolicy P; // MaxRetries = 3 > 2: recoverable.
  const FaultyRunStats FS = Sim.runWithFaults(Plan.Trace, M, P);
  EXPECT_FALSE(FS.anyPersistent());
  EXPECT_TRUE(FS.degraded());
  EXPECT_EQ(FS.TotalRetries, 2);
  EXPECT_GT(FS.Stats.Cycles, Sim.run(Plan.Trace).Cycles);
}

TEST(FaultRunTest, ExhaustedRetriesArePersistent) {
  const PimConfig C = channels(8);
  const PimKernelPlan Plan = planGemm(C);
  PimSimulator Sim(C);
  FaultModel M;
  M.addTransient(TransientFault{0, PimCmdKind::Comp, 0, 5});
  RetryPolicy P; // MaxRetries = 3 < 5: persistent.
  const FaultyRunStats FS = Sim.runWithFaults(Plan.Trace, M, P);
  EXPECT_TRUE(FS.anyPersistent());
  bool Found = false;
  for (const ChannelFaultOutcome &O : FS.Outcomes)
    Found |= O.Health == ChannelHealth::RetriesExhausted;
  EXPECT_TRUE(Found);
}

TEST(FaultRunTest, TransientBeyondTraceIsInert) {
  const PimConfig C = channels(8);
  const PimKernelPlan Plan = planGemm(C);
  PimSimulator Sim(C);
  FaultModel M;
  M.addTransient(TransientFault{0, PimCmdKind::Comp, int64_t(1) << 39, 5});
  const FaultyRunStats FS = Sim.runWithFaults(Plan.Trace, M, RetryPolicy{});
  EXPECT_FALSE(FS.anyPersistent());
  EXPECT_EQ(FS.TotalRetries, 0);
  EXPECT_EQ(FS.Stats.Cycles, Sim.run(Plan.Trace).Cycles);
}

TEST(FaultRunTest, StalledGwriteIsBoundedByWatchdog) {
  const PimConfig C = channels(8);
  const PimKernelPlan Plan = planGemm(C);
  PimSimulator Sim(C);
  FaultModel M;
  M.addStalled(0);
  RetryPolicy P;
  P.WatchdogCycles = 1000;
  const FaultyRunStats FS = Sim.runWithFaults(Plan.Trace, M, P);
  EXPECT_TRUE(FS.anyPersistent());
  bool Found = false;
  for (const ChannelFaultOutcome &O : FS.Outcomes)
    if (O.Health == ChannelHealth::Stalled) {
      Found = true;
      EXPECT_EQ(O.Cycles, P.WatchdogCycles);
    }
  EXPECT_TRUE(Found);
}

TEST(FaultRunTest, FaultsOutsideChannelRangeAreInert) {
  const PimConfig C = channels(4);
  const PimKernelPlan Plan = planGemm(C);
  PimSimulator Sim(C);
  FaultModel M;
  M.addDead(100);
  M.addSlow(200, 8.0);
  const FaultyRunStats FS = Sim.runWithFaults(Plan.Trace, M, RetryPolicy{});
  EXPECT_FALSE(FS.anyPersistent());
  EXPECT_EQ(FS.Stats.Cycles, Sim.run(Plan.Trace).Cycles);
}

//===----------------------------------------------------------------------===//
// Windowed outages (the serve loop's dynamic fault timeline).
//===----------------------------------------------------------------------===//

TEST(FaultTimelineTest, ParsesWindowedOutages) {
  DiagnosticEngine DE;
  auto M = FaultModel::parse("dead@100..200:3,dead@50..80:1", DE);
  ASSERT_TRUE(M.has_value()) << DE.render();
  EXPECT_TRUE(M->hasTimeline());
  ASSERT_EQ(M->outages().size(), 2u);
  // Sorted by (StartNs, Channel), stored in ns (spec is microseconds).
  EXPECT_EQ(M->outages()[0].Channel, 1);
  EXPECT_EQ(M->outages()[0].StartNs, 50'000);
  EXPECT_EQ(M->outages()[0].EndNs, 80'000);
  EXPECT_EQ(M->outages()[1].Channel, 3);
  EXPECT_EQ(M->outages()[1].StartNs, 100'000);
  EXPECT_EQ(M->outages()[1].EndNs, 200'000);
  // Outages are dynamic: the channel is not *statically* dead.
  EXPECT_FALSE(M->channelDead(3));
  EXPECT_EQ(M->faultCount(), 2);
}

TEST(FaultTimelineTest, DeadAtEvaluatesWindowsOnTheVirtualClock) {
  DiagnosticEngine DE;
  auto M = FaultModel::parse("dead@100..200:3,dead:0", DE);
  ASSERT_TRUE(M.has_value());
  // Window is [t1, t2): closed at the start, open at the end.
  EXPECT_FALSE(M->deadAt(3, 99'999));
  EXPECT_TRUE(M->deadAt(3, 100'000));
  EXPECT_TRUE(M->deadAt(3, 199'999));
  EXPECT_FALSE(M->deadAt(3, 200'000));
  // Other channels never match the window.
  EXPECT_FALSE(M->deadAt(2, 150'000));
  // Statically dead channels are dead at every instant.
  EXPECT_TRUE(M->deadAt(0, 0));
  EXPECT_TRUE(M->deadAt(0, int64_t(1) << 40));
}

TEST(FaultTimelineTest, OverlappingWindowsUnion) {
  FaultModel M;
  M.addOutage(ChannelOutage{2, 100, 300});
  M.addOutage(ChannelOutage{2, 250, 500});
  EXPECT_TRUE(M.deadAt(2, 280));  // inside both
  EXPECT_TRUE(M.deadAt(2, 400));  // inside the second only
  EXPECT_FALSE(M.deadAt(2, 500)); // past both
}

TEST(FaultTimelineTest, DescribePrintsWindowsInMicroseconds) {
  DiagnosticEngine DE;
  auto M = FaultModel::parse("dead@100..200:3,dead:1", DE);
  ASSERT_TRUE(M.has_value());
  // Windows print exactly (us-aligned storage), in the spec grammar's
  // spelling, alongside the static classes.
  const std::string Desc = M->describe();
  EXPECT_NE(Desc.find("dead@100..200:3"), std::string::npos) << Desc;
  EXPECT_NE(Desc.find("dead:1"), std::string::npos) << Desc;
  // Each individual entry re-parses (describe joins entries with spaces
  // for display, so the whole string is not itself a spec).
  auto Again = FaultModel::parse("dead@100..200:3", DE);
  ASSERT_TRUE(Again.has_value()) << DE.render();
  EXPECT_EQ(Again->outages().size(), 1u);
  EXPECT_EQ(Again->describe(), "dead@100..200:3");
}

TEST(FaultTimelineTest, MalformedWindowsAreDiagnostics) {
  for (const char *Bad :
       {"dead@200..100:0", "dead@100..100:0", "dead@x..y:0", "dead@100:0",
        "dead@100..:0", "dead@..200:0", "dead@100..200:4096",
        "dead@100..200"}) {
    DiagnosticEngine DE;
    EXPECT_FALSE(FaultModel::parse(Bad, DE).has_value()) << Bad;
    EXPECT_TRUE(DE.hasCode(DiagCode::FaultBadSpec)) << Bad;
  }
}

TEST(FaultTimelineTest, ChaosTimelineIsSeededAndBounded) {
  const FaultModel A = FaultModel::chaosTimeline(9, 12, 2'000'000);
  const FaultModel B = FaultModel::chaosTimeline(9, 12, 2'000'000);
  EXPECT_EQ(A.describe(), B.describe());
  EXPECT_TRUE(A.hasTimeline());
  ASSERT_GE(A.outages().size(), 1u);
  ASSERT_LE(A.outages().size(), 4u);
  for (const ChannelOutage &O : A.outages()) {
    EXPECT_GE(O.Channel, 0);
    EXPECT_LT(O.Channel, 12);
    EXPECT_GE(O.StartNs, 0);
    EXPECT_GT(O.EndNs, O.StartNs);
    // us-aligned so describe() prints exactly.
    EXPECT_EQ(O.StartNs % 1000, 0);
    EXPECT_EQ(O.EndNs % 1000, 0);
  }
  // The static fault classes stay empty: a timeline is serve-only.
  EXPECT_EQ(A.faultCount(), static_cast<int>(A.outages().size()));
  // Seeds diverge, and the chaos() stream is untouched by the timeline
  // generator (its outputs are pinned by the tests above).
  EXPECT_NE(FaultModel::chaosTimeline(1, 12, 2'000'000).describe(),
            FaultModel::chaosTimeline(2, 12, 2'000'000).describe());
  EXPECT_TRUE(FaultModel::chaosTimeline(5, 0, 1000).empty());
  EXPECT_TRUE(FaultModel::chaosTimeline(5, 12, 0).empty());
}
