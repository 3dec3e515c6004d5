//===- tests/runtime/SchedulerPropertyTest.cpp - EST properties -*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scheduling-theory properties of the execution engine's earliest-start
/// list scheduler on transformed graphs: the makespan is bounded below by
/// both the critical path and each device's total work, bounded above by
/// the serial sum, and the schedule itself is a valid (non-overlapping,
/// dependency-respecting) two-resource assignment.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "core/PimFlow.h"
#include "models/Zoo.h"
#include "support/Format.h"
#include "support/StringUtil.h"

using namespace pf;

namespace {

struct Case {
  const char *Model;
  OffloadPolicy Policy;
};

void checkTimeline(const Graph &G, const Timeline &TL,
                   double SyncOverheadNs) {
  double GpuWork = 0.0, PimWork = 0.0, Serial = 0.0;
  std::vector<const NodeSchedule *> Busy[2];
  for (const NodeSchedule &S : TL.Nodes) {
    Serial += S.durationNs();
    if (S.durationNs() <= 0.0)
      continue;
    (S.Dev == Device::Pim ? PimWork : GpuWork) += S.durationNs();
    Busy[S.Dev == Device::Pim ? 1 : 0].push_back(&S);
  }

  // Lower bounds: per-device work; upper bound: fully serial plus syncs.
  EXPECT_GE(TL.TotalNs + 1e-6, GpuWork);
  EXPECT_GE(TL.TotalNs + 1e-6, PimWork);
  EXPECT_LE(TL.TotalNs,
            Serial + SyncOverheadNs * static_cast<double>(TL.Nodes.size()) +
                1e-6);

  // No two busy intervals overlap on the same device.
  for (auto &Lane : Busy) {
    std::sort(Lane.begin(), Lane.end(),
              [](const NodeSchedule *A, const NodeSchedule *B) {
                return A->StartNs < B->StartNs;
              });
    for (size_t I = 1; I < Lane.size(); ++I)
      EXPECT_GE(Lane[I]->StartNs + 1e-6, Lane[I - 1]->EndNs)
          << G.node(Lane[I]->Id).Name << " overlaps "
          << G.node(Lane[I - 1]->Id).Name;
  }

  // Dependencies respected (critical-path validity).
  for (const NodeSchedule &S : TL.Nodes)
    for (ValueId In : G.node(S.Id).Inputs) {
      const NodeId P = G.producer(In);
      if (P != InvalidNode) {
        EXPECT_GE(S.StartNs + 1e-6, TL.scheduleOf(P).EndNs);
      }
    }
}

/// Everything one engine run decides, at full double precision: the
/// timeline totals, every node's schedule in order and every PIM kernel
/// record.
std::string dumpSchedule(const Timeline &TL) {
  std::string Out = formatStr(
      "total %.17g gpu %.17g pim %.17g energy %.17g slowdown %.17g\n",
      TL.TotalNs, TL.GpuBusyNs, TL.PimBusyNs, TL.EnergyJ,
      TL.ContentionSlowdown);
  for (const NodeSchedule &S : TL.Nodes)
    Out += formatStr("node %d dev %d %.17g %.17g %.17g\n",
                     static_cast<int>(S.Id), static_cast<int>(S.Dev),
                     S.StartNs, S.EndNs, S.EnergyJ);
  for (const PimKernelRecord &K : TL.Kernels) {
    const ChannelPhaseCycles &P = K.ChannelPhases;
    Out += formatStr(
        "kernel %d %s bursts %lld acts %lld columns %lld readres %lld "
        "phases %d %lld %lld %lld %lld %lld %lld %lld\n",
        static_cast<int>(K.Id), K.describeMapping().c_str(),
        static_cast<long long>(K.GwriteBursts),
        static_cast<long long>(K.GActs),
        static_cast<long long>(K.CompColumns),
        static_cast<long long>(K.ReadResCmds), P.Channel,
        static_cast<long long>(P.GwriteCycles),
        static_cast<long long>(P.GactCycles),
        static_cast<long long>(P.CompCycles),
        static_cast<long long>(P.ReadResCycles),
        static_cast<long long>(P.RetryCycles),
        static_cast<long long>(P.StallCycles),
        static_cast<long long>(P.CompletionCycles));
  }
  return Out;
}

} // namespace

class SchedulerProperty
    : public ::testing::TestWithParam<std::tuple<const char *, int>> {};

TEST_P(SchedulerProperty, TimelineIsValidTwoResourceSchedule) {
  const auto [Model, PolicyInt] = GetParam();
  const OffloadPolicy Policy = static_cast<OffloadPolicy>(PolicyInt);
  PimFlow Flow(Policy);
  CompileResult R = Flow.compileAndRun(buildModel(Model));
  checkTimeline(R.Transformed, R.Schedule,
                Flow.config().SyncOverheadNs);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SchedulerProperty,
    ::testing::Combine(
        ::testing::Values("toy", "mobilenet-v2", "squeezenet-1.1"),
        ::testing::Values(static_cast<int>(OffloadPolicy::GpuOnly),
                          static_cast<int>(OffloadPolicy::NewtonPlusPlus),
                          static_cast<int>(OffloadPolicy::PimFlowMd),
                          static_cast<int>(OffloadPolicy::PimFlow))),
    [](const auto &Info) {
      std::string Name = formatStr("%s_p%d", std::get<0>(Info.param),
                                   std::get<1>(Info.param));
      for (char &C : Name)
        if (!isalnum(static_cast<unsigned char>(C)) && C != '_')
          C = '_';
      return Name;
    });

TEST(SchedulerProperty, ExecutionIsDeterministic) {
  const Graph Model = buildMobileNetV2();
  CompileResult A = PimFlow(OffloadPolicy::PimFlow).compileAndRun(Model);
  CompileResult B = PimFlow(OffloadPolicy::PimFlow).compileAndRun(Model);
  EXPECT_EQ(A.endToEndNs(), B.endToEndNs());
  EXPECT_EQ(A.energyJ(), B.energyJ());
  ASSERT_EQ(A.Schedule.Nodes.size(), B.Schedule.Nodes.size());
  for (size_t I = 0; I < A.Schedule.Nodes.size(); ++I) {
    EXPECT_EQ(A.Schedule.Nodes[I].Id, B.Schedule.Nodes[I].Id);
    EXPECT_EQ(A.Schedule.Nodes[I].StartNs, B.Schedule.Nodes[I].StartNs);
  }
}

TEST(SchedulerProperty, PaperModelSchedulesArePinned) {
  // Whole-model schedules under PIMFlow at 16 PIM channels, bit for bit:
  // a scheduler or planner change that keeps every schedule valid but
  // moves one start time, energy or kernel mapping changes a digest. Only
  // a deliberate change to the modelled system may re-baseline them, in
  // the same change that explains why.
  struct Pinned {
    const char *Model;
    bool Contention;
    const char *Digest;
  };
  const Pinned Cases[] = {
      {"efficientnet-v1-b0", false, "7365dc0c5222e8a6"},
      {"mobilenet-v2", false, "08499bd827d091c9"},
      {"mnasnet-1.0", false, "9d576887e8639394"},
      {"resnet-50", false, "c8832d9bcc7eedcb"},
      {"vgg-16", false, "5603237f281ef79f"},
      {"toy", false, "466378048b321034"},
      {"resnet-18", false, "021fd71513fae3b4"},
      {"mobilenet-v2", true, "e4ef5293ab71aa2f"},
  };
  for (const Pinned &C : Cases) {
    SCOPED_TRACE(testing::Message() << C.Model << " contention="
                                    << C.Contention);
    PimFlowOptions O;
    O.ModelContention = C.Contention;
    PimFlow Flow(OffloadPolicy::PimFlow, O);
    ASSERT_EQ(Flow.config().Pim.Channels, 16);
    const CompileResult R = Flow.compileAndRun(buildModel(C.Model));
    EXPECT_FALSE(R.Schedule.Kernels.empty());
    EXPECT_EQ(fnv1a64Hex(dumpSchedule(R.Schedule)), C.Digest);
  }
}

TEST(SchedulerProperty, OverlapNeverExceedsDeviceSum) {
  // Parallel speedup is bounded by 2x for a two-resource system.
  const Graph Model = buildMnasNet();
  CompileResult R = PimFlow(OffloadPolicy::PimFlow).compileAndRun(Model);
  const double Work = R.Schedule.GpuBusyNs + R.Schedule.PimBusyNs;
  EXPECT_GE(2.0 * R.Schedule.TotalNs + 1e-6, Work);
}

TEST(ZooTest, TryBuildModel) {
  EXPECT_TRUE(tryBuildModel("toy").has_value());
  EXPECT_TRUE(tryBuildModel("densenet-121").has_value());
  EXPECT_TRUE(tryBuildModel("efficientnet-v1-b3").has_value());
  EXPECT_FALSE(tryBuildModel("notanet").has_value());
  EXPECT_FALSE(tryBuildModel("").has_value());
}
