//===- tests/runtime/ExecutionEngineTest.cpp - engine tests -----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ExecutionEngine.h"

#include <functional>
#include <map>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "codegen/CommandGenerator.h"
#include "codegen/PimKernelSpec.h"
#include "core/PimFlow.h"
#include "ir/Builder.h"
#include "models/Zoo.h"
#include "obs/Scope.h"
#include "support/Format.h"

using namespace pf;

namespace {

SystemConfig dualConfig() { return SystemConfig::dual(16, true); }

/// Two independent convs feeding a concat; one can go to PIM.
Graph parallelPair() {
  GraphBuilder B("pair");
  ValueId X = B.input("x", TensorShape{1, 32, 32, 16});
  ValueId A = B.conv2d(X, 32, 1, 1, 0);
  ValueId C = B.conv2d(X, 32, 1, 1, 0);
  B.output(B.concat({A, C}, 1));
  return B.take();
}

/// mobilenet-v2 planned and materialized under PIMFlow on 16 of 32
/// channels: PIM, MD-DP and pipeline segments, many kernels of one spec.
struct Materialized {
  SystemConfig Config;
  Graph G;
};

Materialized materializedMobileNet() {
  const Graph M = buildModel("mobilenet-v2");
  PimFlowOptions O;
  O.PimChannels = 16;
  PimFlow Flow(OffloadPolicy::PimFlow, O);
  return {Flow.config(), Flow.materialize(M, Flow.plan(M))};
}

/// The `codegen.plans` count of what \p Run records.
int64_t plansRecordedBy(const std::function<void()> &Run) {
  obs::Scope S;
  {
    obs::ScopeGuard Guard(S);
    Run();
  }
  for (const auto &[Name, Value] : S.registry().counterSnapshot())
    if (Name == "codegen.plans")
      return Value;
  return 0;
}

/// Expects \p A and \p B to be one timeline, field for field.
void expectSameTimeline(const Timeline &A, const Timeline &B) {
  auto Row = [](const NodeSchedule &S) {
    return std::tie(S.Id, S.Dev, S.StartNs, S.EndNs, S.EnergyJ);
  };
  ASSERT_EQ(A.Nodes.size(), B.Nodes.size());
  for (size_t I = 0; I < A.Nodes.size(); ++I)
    EXPECT_EQ(Row(A.Nodes[I]), Row(B.Nodes[I])) << "schedule entry " << I;
  auto Record = [](const PimKernelRecord &K) {
    const ChannelPhaseCycles &P = K.ChannelPhases;
    return std::tie(K.Id, K.ChannelsForM, K.ChannelsForV, K.ChannelsForK,
                    K.Granularity, K.GwriteBursts, K.GActs, K.CompColumns,
                    K.ReadResCmds, P.Channel, P.GwriteCycles, P.GactCycles,
                    P.CompCycles, P.ReadResCycles, P.RetryCycles,
                    P.StallCycles, P.CompletionCycles);
  };
  ASSERT_EQ(A.Kernels.size(), B.Kernels.size());
  for (size_t I = 0; I < A.Kernels.size(); ++I)
    EXPECT_EQ(Record(A.Kernels[I]), Record(B.Kernels[I])) << "kernel " << I;
  EXPECT_EQ(A.TotalNs, B.TotalNs);
  EXPECT_EQ(A.EnergyJ, B.EnergyJ);
  EXPECT_EQ(A.GpuBusyNs, B.GpuBusyNs);
  EXPECT_EQ(A.PimBusyNs, B.PimBusyNs);
  EXPECT_EQ(A.ContentionSlowdown, B.ContentionSlowdown);
}

} // namespace

TEST(ExecutionEngineTest, TimelineRespectsDependencies) {
  Graph G = parallelPair();
  ExecutionEngine E(dualConfig());
  Timeline TL = E.execute(G);
  for (const NodeSchedule &S : TL.Nodes) {
    EXPECT_GE(S.StartNs, 0.0);
    EXPECT_GE(S.EndNs, S.StartNs);
    for (ValueId In : G.node(S.Id).Inputs) {
      NodeId P = G.producer(In);
      if (P == InvalidNode)
        continue;
      EXPECT_GE(S.StartNs, TL.scheduleOf(P).EndNs - 1e-9);
    }
  }
  EXPECT_GT(TL.TotalNs, 0.0);
}

TEST(ExecutionEngineTest, IndependentNodesOverlapAcrossDevices) {
  Graph G = parallelPair();
  // Annotate one conv for PIM.
  for (NodeId Id : G.topoOrder())
    if (G.node(Id).Kind == OpKind::Conv2d) {
      G.node(Id).Dev = Device::Pim;
      break;
    }
  ExecutionEngine E(dualConfig());
  Timeline TL = E.execute(G);
  // Find the two conv schedules; their intervals must overlap.
  std::vector<const NodeSchedule *> Convs;
  for (const NodeSchedule &S : TL.Nodes)
    if (G.node(S.Id).Kind == OpKind::Conv2d)
      Convs.push_back(&S);
  ASSERT_EQ(Convs.size(), 2u);
  const double OverlapStart =
      std::max(Convs[0]->StartNs, Convs[1]->StartNs);
  const double OverlapEnd = std::min(Convs[0]->EndNs, Convs[1]->EndNs);
  EXPECT_GT(OverlapEnd, OverlapStart);
  // And the makespan beats serial execution.
  EXPECT_LT(TL.TotalNs,
            Convs[0]->durationNs() + Convs[1]->durationNs() + 1000.0);
}

TEST(ExecutionEngineTest, SameDeviceSerializes) {
  Graph G = parallelPair();
  ExecutionEngine E(dualConfig());
  Timeline TL = E.execute(G);
  std::vector<const NodeSchedule *> Convs;
  for (const NodeSchedule &S : TL.Nodes)
    if (G.node(S.Id).Kind == OpKind::Conv2d)
      Convs.push_back(&S);
  ASSERT_EQ(Convs.size(), 2u);
  const double OverlapStart =
      std::max(Convs[0]->StartNs, Convs[1]->StartNs);
  const double OverlapEnd = std::min(Convs[0]->EndNs, Convs[1]->EndNs);
  EXPECT_LE(OverlapEnd - OverlapStart, 1e-9);
}

TEST(ExecutionEngineTest, FusedElementwiseIsFree) {
  GraphBuilder B("t");
  ValueId X = B.input("x", TensorShape{1, 32, 32, 16});
  ValueId C = B.conv2d(X, 32, 1, 1, 0);
  B.output(B.relu(C));
  Graph G = B.take();
  ExecutionEngine E(dualConfig());
  Timeline TL = E.execute(G);
  for (const NodeSchedule &S : TL.Nodes)
    if (G.node(S.Id).Kind == OpKind::Relu) {
      EXPECT_EQ(S.durationNs(), 0.0);
      EXPECT_EQ(S.EnergyJ, 0.0);
    }
}

TEST(ExecutionEngineTest, CrossDeviceHandoffCostsSync) {
  GraphBuilder B("t");
  ValueId X = B.input("x", TensorShape{1, 32, 32, 16});
  ValueId C = B.conv2d(X, 32, 1, 1, 0);
  B.output(B.maxPool(C, 2, 2));
  Graph G = B.take();
  NodeId Conv = G.topoOrder()[0];
  NodeId Pool = G.topoOrder()[1];
  SystemConfig Cfg = dualConfig();

  G.node(Conv).Dev = Device::Pim;
  Timeline TL = ExecutionEngine(Cfg).execute(G);
  const double Gap =
      TL.scheduleOf(Pool).StartNs - TL.scheduleOf(Conv).EndNs;
  EXPECT_NEAR(Gap, Cfg.SyncOverheadNs, 1.0);
}

TEST(ExecutionEngineTest, PimLatencyMatchesIsolatedQuery) {
  Graph G = parallelPair();
  NodeId Conv = InvalidNode;
  for (NodeId Id : G.topoOrder())
    if (G.node(Id).Kind == OpKind::Conv2d) {
      Conv = Id;
      break;
    }
  SystemConfig Cfg = dualConfig();
  ExecutionEngine E(Cfg);
  const double Gpu = E.nodeLatencyNs(G, Conv);
  const PimKernelPlan Plan = PimCommandGenerator(Cfg.Pim, Cfg.Codegen)
                                 .plan(lowerToPimSpec(G, Conv));
  EXPECT_GT(Gpu, 0.0);
  EXPECT_GT(Plan.Ns, 0.0);
  G.node(Conv).Dev = Device::Pim;
  Timeline TL = E.execute(G);
  EXPECT_NEAR(TL.scheduleOf(Conv).durationNs(), Plan.Ns, 1e-6);
  // The timeline records the mapping that plan chose.
  ASSERT_EQ(TL.Kernels.size(), 1u);
  EXPECT_EQ(TL.Kernels[0].Id, Conv);
  EXPECT_EQ(TL.Kernels[0].describeMapping(), Plan.describeMapping());
  EXPECT_EQ(TL.Kernels[0].GwriteBursts, Plan.Stats.GwriteBursts);
}

TEST(ExecutionEngineTest, GpuOnlyConfigRejectsNothing) {
  Graph G = parallelPair();
  ExecutionEngine E(SystemConfig::gpuOnly());
  Timeline TL = E.execute(G);
  for (const NodeSchedule &S : TL.Nodes)
    EXPECT_EQ(S.Dev, Device::Gpu);
}

TEST(ExecutionEngineTest, FreeSliceConcatDoNotOccupyDevice) {
  GraphBuilder B("t");
  ValueId X = B.input("x", TensorShape{1, 32, 32, 16});
  ValueId Lo = B.slice(X, 1, 0, 16);
  ValueId Hi = B.slice(X, 1, 16, 32);
  B.output(B.concat({Lo, Hi}, 1));
  Graph G = B.take();
  ExecutionEngine E(dualConfig());
  Timeline TL = E.execute(G);
  EXPECT_EQ(TL.GpuBusyNs, 0.0);
  EXPECT_EQ(TL.TotalNs, 0.0);
}

TEST(ExecutionEngineTest, DisabledMemOptMakesCopiesCostly) {
  GraphBuilder B("t");
  ValueId X = B.input("x", TensorShape{1, 32, 32, 16});
  ValueId Lo = B.slice(X, 1, 0, 16);
  B.output(B.relu6(Lo));
  Graph G = B.take();
  SystemConfig On = dualConfig();
  SystemConfig Off = dualConfig();
  Off.MemoryOptimizer = false;
  const double TOn = ExecutionEngine(On).execute(G).TotalNs;
  const double TOff = ExecutionEngine(Off).execute(G).TotalNs;
  EXPECT_GT(TOff, TOn);
}

TEST(ExecutionEngineTest, ContentionSlowdownIsTiny) {
  // Section 7: the measured slowdown is a fraction of a percent.
  Graph G = parallelPair();
  for (NodeId Id : G.topoOrder())
    if (G.node(Id).Kind == OpKind::Conv2d) {
      G.node(Id).Dev = Device::Pim;
      break;
    }
  SystemConfig Cfg = dualConfig();
  Cfg.ModelContention = true;
  Timeline TL = ExecutionEngine(Cfg).execute(G);
  EXPECT_GE(TL.ContentionSlowdown, 1.0);
  EXPECT_LT(TL.ContentionSlowdown, 1.02);
}

TEST(ExecutionEngineTest, EmptyGraphExecutesToEmptyTimeline) {
  Graph G("empty");
  ExecutionEngine E(dualConfig());
  DiagnosticEngine DE;
  std::optional<Timeline> TL = E.tryExecute(G, DE);
  ASSERT_TRUE(TL.has_value());
  EXPECT_FALSE(DE.hasErrors());
  EXPECT_TRUE(TL->Nodes.empty());
  EXPECT_EQ(TL->TotalNs, 0.0);
}

TEST(ExecutionEngineTest, PimAnnotationWithoutPimChannelsIsDiagnosed) {
  Graph G = parallelPair();
  for (NodeId Id : G.topoOrder())
    if (G.node(Id).Kind == OpKind::Conv2d) {
      G.node(Id).Dev = Device::Pim;
      break;
    }
  ExecutionEngine E(SystemConfig::gpuOnly());
  DiagnosticEngine DE;
  EXPECT_FALSE(E.tryExecute(G, DE).has_value());
  EXPECT_TRUE(DE.hasErrors());
  EXPECT_NE(DE.render().find("exec.no-pim-channels"), std::string::npos);
}

TEST(ExecutionEngineTest, DependencyCycleIsDiagnosedNotHung) {
  // Two relus feeding each other through a back-edge patched in after
  // construction — unschedulable, and before tryExecute this tripped an
  // assert deep in the scheduler (or scheduled a silently partial graph).
  GraphBuilder B("cyclic");
  ValueId X = B.input("x", TensorShape{1, 8, 8, 8});
  ValueId R1 = B.relu(X);
  ValueId R2 = B.relu(R1);
  B.output(R2);
  Graph G = B.take();
  const NodeId First = G.topoOrder()[0];
  G.setInput(First, 0, R2);
  ExecutionEngine E(dualConfig());
  DiagnosticEngine DE;
  EXPECT_FALSE(E.tryExecute(G, DE).has_value());
  EXPECT_TRUE(DE.hasErrors());
  EXPECT_NE(DE.render().find("exec.unschedulable"), std::string::npos);
}

TEST(ExecutionEngineTest, TryExecuteMatchesExecute) {
  Graph G = parallelPair();
  ExecutionEngine E(dualConfig());
  DiagnosticEngine DE;
  std::optional<Timeline> TL = E.tryExecute(G, DE);
  ASSERT_TRUE(TL.has_value());
  const Timeline Plain = E.execute(G);
  EXPECT_DOUBLE_EQ(TL->TotalNs, Plain.TotalNs);
  EXPECT_EQ(TL->Nodes.size(), Plain.Nodes.size());
}

TEST(ExecutionEngineTest, EnergyPositiveAndDecomposes) {
  Graph G = parallelPair();
  ExecutionEngine E(dualConfig());
  Timeline TL = E.execute(G);
  EXPECT_GT(TL.EnergyJ, 0.0);
  double KernelSum = 0.0;
  for (const NodeSchedule &S : TL.Nodes)
    KernelSum += S.EnergyJ;
  EXPECT_GE(TL.EnergyJ, KernelSum); // Plus idle power.
}

TEST(ExecutionEngineTest, RepeatedKernelIsPlannedOnce) {
  // Two PIM convs of one kernel spec and a third of another: the engine
  // plans two kernels, yet every executed node keeps its own record and
  // its own contribution to the per-channel command counters.
  GraphBuilder B("repeated");
  ValueId X = B.input("x", TensorShape{1, 32, 32, 16});
  ValueId A = B.conv2d(X, 32, 1, 1, 0);
  ValueId C = B.conv2d(X, 32, 1, 1, 0);
  ValueId D = B.conv2d(X, 64, 1, 1, 0);
  B.output(B.concat({A, C, D}, 3));
  Graph G = B.take();
  std::vector<NodeId> Convs;
  for (NodeId Id : G.topoOrder())
    if (G.node(Id).Kind == OpKind::Conv2d) {
      G.node(Id).Dev = Device::Pim;
      Convs.push_back(Id);
    }
  ASSERT_EQ(Convs.size(), 3u);

  obs::Scope Run;
  Timeline TL;
  {
    obs::ScopeGuard Guard(Run);
    TL = ExecutionEngine(dualConfig()).execute(G);
  }
  std::map<std::string, int64_t> Counters;
  for (const auto &[Name, Value] : Run.registry().counterSnapshot())
    Counters[Name] = Value;
  EXPECT_EQ(Counters["codegen.plans"], 2);

  ASSERT_EQ(TL.Kernels.size(), 3u);
  std::map<NodeId, const PimKernelRecord *> ById;
  for (const PimKernelRecord &K : TL.Kernels)
    ById[K.Id] = &K;
  const PimKernelRecord *First = ById[G.producer(A)];
  const PimKernelRecord *Second = ById[G.producer(C)];
  ASSERT_TRUE(First && Second && ById[G.producer(D)]);
  EXPECT_EQ(First->describeMapping(), Second->describeMapping());
  EXPECT_EQ(First->GwriteBursts, Second->GwriteBursts);
  EXPECT_EQ(First->GActs, Second->GActs);
  EXPECT_EQ(First->CompColumns, Second->CompColumns);
  EXPECT_EQ(First->ReadResCmds, Second->ReadResCmds);
  EXPECT_EQ(First->ChannelPhases.busyCycles(),
            Second->ChannelPhases.busyCycles());
  EXPECT_EQ(First->ChannelPhases.CompletionCycles,
            Second->ChannelPhases.CompletionCycles);
  EXPECT_EQ(TL.scheduleOf(First->Id).durationNs(),
            TL.scheduleOf(Second->Id).durationNs());

  // Every used channel of a kernel carries the same stream, so channel N
  // of the `pim.<command>.ch<N>` families sums each executed kernel's
  // per-channel share over the kernels that use channel N.
  std::map<std::string, int64_t> Expected;
  for (const PimKernelRecord &K : TL.Kernels) {
    const int Used = K.usedChannels();
    for (int Ch = 0; Ch < Used; ++Ch) {
      Expected[formatStr("pim.gwrite_bursts.ch%d", Ch)] +=
          K.GwriteBursts / Used;
      Expected[formatStr("pim.g_acts.ch%d", Ch)] += K.GActs / Used;
      Expected[formatStr("pim.comp_columns.ch%d", Ch)] += K.CompColumns / Used;
      Expected[formatStr("pim.read_res.ch%d", Ch)] += K.ReadResCmds / Used;
    }
  }
  std::map<std::string, int64_t> Actual;
  for (const auto &[Name, Value] : Counters)
    for (const char *Family : {"pim.gwrite_bursts.ch", "pim.g_acts.ch",
                               "pim.comp_columns.ch", "pim.read_res.ch"})
      if (Name.rfind(Family, 0) == 0)
        Actual[Name] = Value;
  EXPECT_FALSE(Actual.empty());
  EXPECT_EQ(Actual, Expected);
}

TEST(ExecutionEngineTest, ContentionCountsEachHandoffOnce) {
  // The contention model schedules the graph twice; the counters describe
  // the timeline it keeps, so the rescaled pass must not add the first
  // pass's handoffs to its own.
  Graph G = parallelPair();
  for (NodeId Id : G.topoOrder())
    if (G.node(Id).Kind == OpKind::Conv2d) {
      G.node(Id).Dev = Device::Pim;
      break;
    }
  auto HandoffsOf = [&G](bool Contention) {
    SystemConfig Cfg = dualConfig();
    Cfg.ModelContention = Contention;
    obs::Scope Run;
    {
      obs::ScopeGuard Guard(Run);
      const Timeline TL = ExecutionEngine(Cfg).execute(G);
      EXPECT_EQ(TL.ContentionSlowdown > 1.0, Contention);
    }
    int64_t Handoffs = 0;
    for (const auto &[Name, Value] : Run.registry().counterSnapshot())
      if (Name == "engine.cross_device_handoffs")
        Handoffs = Value;
    return Handoffs;
  };
  const int64_t Plain = HandoffsOf(false);
  EXPECT_EQ(Plain, 1); // The PIM conv's result feeds the GPU concat.
  EXPECT_EQ(HandoffsOf(true), Plain);
}

TEST(ExecutionEngineTest, SecondRunPlansNothing) {
  // An engine keeps every PIM kernel it planned: the first run plans each
  // distinct kernel spec once, the second plans none and still returns
  // what a fresh engine returns, contention's re-pass included.
  const Materialized M = materializedMobileNet();
  std::set<PimKernelSpec> Specs;
  for (const Node &N : M.G.nodes())
    if (!N.Dead && N.Dev == Device::Pim)
      Specs.insert(lowerToPimSpec(M.G, N.Id));
  ASSERT_GT(Specs.size(), 1u);

  for (const bool Contention : {false, true}) {
    SCOPED_TRACE(Contention ? "contention" : "no contention");
    SystemConfig Config = M.Config;
    Config.ModelContention = Contention;
    ExecutionEngine E(Config);
    Timeline First, Second;
    EXPECT_EQ(plansRecordedBy([&] { First = E.execute(M.G); }),
              static_cast<int64_t>(Specs.size()));
    EXPECT_EQ(plansRecordedBy([&] { Second = E.execute(M.G); }), 0);
    EXPECT_EQ(First.ContentionSlowdown > 1.0, Contention);
    expectSameTimeline(First, ExecutionEngine(Config).execute(M.G));
    expectSameTimeline(Second, First);
  }
}

TEST(ExecutionEngineTest, FaultAwareRunsMixWithKeptPlans) {
  // A fault-aware run plans its kernels with their traces for itself, so
  // a fault-free and a fault-aware run on one engine, in either order,
  // each return what a fresh engine returns.
  const Materialized M = materializedMobileNet();
  DiagnosticEngine DE;
  const std::optional<FaultModel> Slow = FaultModel::parse("slow:2:4.0", DE);
  ASSERT_TRUE(Slow) << DE.render();
  const RetryPolicy Retry;
  auto Run = [&](ExecutionEngine &E, bool Faulty) {
    DiagnosticEngine RunDE;
    std::optional<Timeline> TL =
        E.tryExecute(M.G, RunDE, Faulty ? &*Slow : nullptr,
                     Faulty ? &Retry : nullptr);
    EXPECT_TRUE(TL) << RunDE.render();
    return TL.value_or(Timeline{});
  };
  ExecutionEngine FreshPlain(M.Config), FreshFaulty(M.Config);
  const Timeline Plain = Run(FreshPlain, false);
  const Timeline Faulty = Run(FreshFaulty, true);
  EXPECT_GT(Faulty.TotalNs, Plain.TotalNs);

  for (const bool FaultyFirst : {false, true}) {
    SCOPED_TRACE(FaultyFirst ? "fault-aware run first" : "fault-free first");
    ExecutionEngine E(M.Config);
    const Timeline First = Run(E, FaultyFirst);
    const Timeline Then = Run(E, !FaultyFirst);
    expectSameTimeline(First, FaultyFirst ? Faulty : Plain);
    expectSameTimeline(Then, FaultyFirst ? Plain : Faulty);
  }
}
