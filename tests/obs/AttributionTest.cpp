//===- tests/obs/AttributionTest.cpp - Perf attribution ---------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Attribution.h"

#include <gtest/gtest.h>

#include "core/PimFlow.h"
#include "ir/Builder.h"
#include "models/Zoo.h"
#include "obs/Counters.h"
#include "obs/PerfReport.h"

using namespace pf;
using namespace pf::obs;

namespace {

/// conv(GPU) -> conv(PIM) chain; returns the graph plus both conv ids in
/// topological order.
Graph chainGraph(NodeId &First, NodeId &Second) {
  GraphBuilder B("chain");
  ValueId X = B.input("x", TensorShape{1, 32, 32, 16});
  ValueId A = B.conv2d(X, 32, 1, 1, 0);
  B.output(B.conv2d(A, 32, 1, 1, 0));
  Graph G = B.take();
  std::vector<NodeId> Convs;
  for (NodeId Id : G.topoOrder())
    if (G.node(Id).Kind == OpKind::Conv2d)
      Convs.push_back(Id);
  First = Convs.at(0);
  Second = Convs.at(1);
  return G;
}

/// Two independent convs off one input (no dataflow between them).
Graph forkGraph(NodeId &First, NodeId &Second) {
  GraphBuilder B("fork");
  ValueId X = B.input("x", TensorShape{1, 32, 32, 16});
  ValueId A = B.conv2d(X, 32, 1, 1, 0);
  ValueId C = B.conv2d(X, 32, 1, 1, 0);
  B.output(B.concat({A, C}, 1));
  Graph G = B.take();
  std::vector<NodeId> Convs;
  for (NodeId Id : G.topoOrder())
    if (G.node(Id).Kind == OpKind::Conv2d)
      Convs.push_back(Id);
  First = Convs.at(0);
  Second = Convs.at(1);
  return G;
}

NodeSchedule sched(NodeId Id, Device Dev, double Start, double End) {
  NodeSchedule S;
  S.Id = Id;
  S.Dev = Dev;
  S.StartNs = Start;
  S.EndNs = End;
  return S;
}

} // namespace

// A hand-built two-node timeline with a cross-device handoff: the chain,
// slack, and lane accounting are all known in closed form.
TEST(AttributionTest, HandBuiltDependencyChain) {
  NodeId A, C;
  Graph G = chainGraph(A, C);
  const SystemConfig Config = SystemConfig::dual();

  Timeline TL;
  TL.Nodes.push_back(sched(A, Device::Gpu, 0.0, 100.0));
  // The PIM consumer starts exactly at producer end + SyncOverheadNs.
  TL.Nodes.push_back(
      sched(C, Device::Pim, 100.0 + Config.SyncOverheadNs,
            300.0 + Config.SyncOverheadNs));
  TL.TotalNs = TL.Nodes.back().EndNs;
  // The kernel record the engine would keep for the PIM node.
  TL.Kernels.push_back(
      recordOf(C, PimCommandGenerator(Config.Pim, Config.Codegen)
                      .plan(lowerToPimSpec(G, C))));

  const AttributionReport R = attributeTimeline(G, TL, Config);
  EXPECT_DOUBLE_EQ(R.TotalNs, TL.TotalNs);
  EXPECT_DOUBLE_EQ(R.Critical.LengthNs, TL.TotalNs);

  ASSERT_EQ(R.Critical.Steps.size(), 2u);
  EXPECT_EQ(R.Critical.Steps[0].Id, A);
  EXPECT_EQ(R.Critical.Steps[0].Why, CriticalReason::Start);
  EXPECT_EQ(R.Critical.Steps[0].Blocker, InvalidNode);
  EXPECT_EQ(R.Critical.Steps[1].Id, C);
  EXPECT_EQ(R.Critical.Steps[1].Why, CriticalReason::Dependency);
  EXPECT_EQ(R.Critical.Steps[1].Blocker, A);
  EXPECT_DOUBLE_EQ(R.Critical.GpuNs, 100.0);
  EXPECT_DOUBLE_EQ(R.Critical.PimNs, 200.0);
  // The handoff wait keeps the busy sum under the chain length.
  EXPECT_LT(R.Critical.GpuNs + R.Critical.PimNs, R.Critical.LengthNs);

  // Both nodes are fully constrained: zero slack, both critical.
  ASSERT_EQ(R.Slack.size(), 2u);
  for (const NodeSlack &S : R.Slack) {
    EXPECT_NEAR(S.SlackNs, 0.0, 1e-9);
    EXPECT_TRUE(S.Critical);
  }

  // GPU lane: busy [0,100], one idle hole to the makespan.
  ASSERT_FALSE(R.Lanes.empty());
  const LaneUsage &Gpu = R.Lanes.front();
  EXPECT_EQ(Gpu.Name, "gpu");
  EXPECT_EQ(Gpu.Channel, -1);
  EXPECT_DOUBLE_EQ(Gpu.BusyNs, 100.0);
  EXPECT_DOUBLE_EQ(Gpu.IdleNs, TL.TotalNs - 100.0);
  ASSERT_EQ(Gpu.Gaps.size(), 1u);
  EXPECT_DOUBLE_EQ(Gpu.Gaps[0].StartNs, 100.0);
  EXPECT_DOUBLE_EQ(Gpu.Gaps[0].EndNs, TL.TotalNs);

  // The offloaded conv maps to at least one PIM channel; each channel lane
  // is busy exactly while the node runs, and carries nonzero phase cycles.
  ASSERT_GE(R.Lanes.size(), 2u);
  EXPECT_FALSE(R.Phases.empty());
  for (size_t I = 1; I < R.Lanes.size(); ++I) {
    const LaneUsage &Lane = R.Lanes[I];
    EXPECT_GE(Lane.Channel, 0);
    EXPECT_DOUBLE_EQ(Lane.BusyNs, 200.0);
    EXPECT_DOUBLE_EQ(Lane.IdleNs, TL.TotalNs - 200.0);
  }
  for (const ChannelPhaseCycles &P : R.Phases)
    EXPECT_GT(P.busyCycles(), 0);
}

// Two independent same-lane nodes back to back: the second's start is
// explained by lane occupancy, not a dependency.
TEST(AttributionTest, DeviceBusyReason) {
  NodeId A, C;
  Graph G = forkGraph(A, C);

  Timeline TL;
  TL.Nodes.push_back(sched(A, Device::Gpu, 0.0, 100.0));
  TL.Nodes.push_back(sched(C, Device::Gpu, 100.0, 250.0));
  TL.TotalNs = 250.0;

  const AttributionReport R =
      attributeTimeline(G, TL, SystemConfig::gpuOnly());
  ASSERT_EQ(R.Critical.Steps.size(), 2u);
  EXPECT_EQ(R.Critical.Steps[0].Id, A);
  EXPECT_EQ(R.Critical.Steps[0].Why, CriticalReason::Start);
  EXPECT_EQ(R.Critical.Steps[1].Id, C);
  EXPECT_EQ(R.Critical.Steps[1].Why, CriticalReason::DeviceBusy);
  EXPECT_EQ(R.Critical.Steps[1].Blocker, A);
  EXPECT_DOUBLE_EQ(R.Critical.LengthNs, 250.0);

  // The lane never idles, and the lane-successor constraint makes both
  // nodes critical even without a dataflow edge between them.
  const LaneUsage &Gpu = R.Lanes.front();
  EXPECT_DOUBLE_EQ(Gpu.BusyNs, 250.0);
  EXPECT_TRUE(Gpu.Gaps.empty());
  for (const NodeSlack &S : R.Slack)
    EXPECT_TRUE(S.Critical);
}

TEST(AttributionTest, EmptyTimeline) {
  Graph G("empty");
  Timeline TL;
  const AttributionReport R =
      attributeTimeline(G, TL, SystemConfig::gpuOnly());
  EXPECT_EQ(R.Critical.Steps.size(), 0u);
  EXPECT_TRUE(R.Lanes.empty());
  EXPECT_TRUE(R.Phases.empty());
}

// phaseCyclesOf is hand-checkable: durations are closed-form functions of
// the Table-1 timing parameters.
TEST(AttributionTest, PhaseCyclesHandMath) {
  const PimConfig C = PimConfig::newtonPlusPlus();
  ChannelTrace Trace;
  std::vector<PimCommand> Pattern;
  Pattern.push_back(PimCommand::gwrite(32, 4)); // 128 bursts.
  Pattern.push_back(PimCommand::gact(4));
  Pattern.push_back(PimCommand::comp(512));
  Pattern.push_back(PimCommand::readRes(64));
  const int64_t Repeats = 1000;
  Trace.Blocks.push_back(CommandBlock{Pattern, Repeats});

  const ChannelPhaseCycles P = phaseCyclesOf(C, Trace);
  EXPECT_EQ(P.GwriteCycles, Repeats * (C.TGwrite + 127 * C.TCcdl));
  EXPECT_EQ(P.GactCycles, Repeats * (C.TGact + 3 * C.TRrd));
  EXPECT_EQ(P.CompCycles, Repeats * 512 * C.TComp);
  EXPECT_EQ(P.ReadResCycles, Repeats * (C.TReadRes + 63 * C.TCcdl));
  EXPECT_EQ(P.RetryCycles, 0);
  EXPECT_EQ(P.StallCycles, 0);
  EXPECT_EQ(P.busyCycles(), P.GwriteCycles + P.GactCycles + P.CompCycles +
                                P.ReadResCycles);
  EXPECT_EQ(P.bankBusyCycles(),
            P.GactCycles + P.CompCycles + P.ReadResCycles);
}

// The fault-free device run carries one phase entry per non-empty channel,
// consistent with the standalone accounting and the channel makespan.
TEST(AttributionTest, RunPhasesMatchStandaloneAccounting) {
  PimConfig C = PimConfig::newtonPlusPlus();
  PimSimulator Sim(C);
  DeviceTrace Trace(C.Channels);
  std::vector<PimCommand> Pattern = {PimCommand::gwrite(8, 1),
                                     PimCommand::gact(2),
                                     PimCommand::comp(16),
                                     PimCommand::readRes(4)};
  Trace.Channels[0].Blocks.push_back(CommandBlock{Pattern, 10});
  Trace.Channels[2].Blocks.push_back(CommandBlock{Pattern, 5});

  const PimRunStats Stats = Sim.run(Trace);
  ASSERT_EQ(Stats.ChannelPhases.size(), 2u);
  EXPECT_EQ(Stats.ChannelPhases[0].Channel, 0);
  EXPECT_EQ(Stats.ChannelPhases[1].Channel, 2);
  for (const ChannelPhaseCycles &P : Stats.ChannelPhases) {
    const ChannelTrace &Ch = Trace.Channels[static_cast<size_t>(P.Channel)];
    const ChannelPhaseCycles Ref = phaseCyclesOf(C, Ch);
    EXPECT_EQ(P.GwriteCycles, Ref.GwriteCycles);
    EXPECT_EQ(P.GactCycles, Ref.GactCycles);
    EXPECT_EQ(P.CompCycles, Ref.CompCycles);
    EXPECT_EQ(P.ReadResCycles, Ref.ReadResCycles);
    EXPECT_EQ(P.CompletionCycles, Sim.simulateChannel(Ch));
  }
}

// Faulted run: retry, stall, and dead time land in the right buckets, and
// the per-channel totals agree with the fault outcomes.
TEST(AttributionTest, FaultedRunAttributesRetryAndStallTime) {
  PimConfig C = PimConfig::newtonPlusPlus();
  PimSimulator Sim(C);
  DeviceTrace Trace(C.Channels);
  std::vector<PimCommand> Pattern = {PimCommand::gwrite(8, 1),
                                     PimCommand::gact(2),
                                     PimCommand::comp(16),
                                     PimCommand::readRes(4)};
  for (int Ch : {0, 1, 2})
    Trace.Channels[static_cast<size_t>(Ch)].Blocks.push_back(
        CommandBlock{Pattern, 10});

  FaultModel Faults;
  Faults.addDead(0);
  Faults.addStalled(1);
  Faults.addTransient(TransientFault{2, PimCmdKind::Comp, 3, 2});
  const RetryPolicy Retry;

  const FaultyRunStats R = Sim.runWithFaults(Trace, Faults, Retry);
  ASSERT_EQ(R.Outcomes.size(), 3u);
  ASSERT_EQ(R.Stats.ChannelPhases.size(), 3u);

  // Dead channel: no progress, nothing attributed.
  const ChannelPhaseCycles &Dead = R.Stats.ChannelPhases[0];
  EXPECT_EQ(R.Outcomes[0].Health, ChannelHealth::Dead);
  EXPECT_EQ(Dead.busyCycles(), 0);
  EXPECT_EQ(Dead.CompletionCycles, 0);

  // Stalled channel: the whole watchdog bound is attributed as stall loss.
  const ChannelPhaseCycles &Stalled = R.Stats.ChannelPhases[1];
  EXPECT_EQ(R.Outcomes[1].Health, ChannelHealth::Stalled);
  EXPECT_EQ(Stalled.StallCycles, Retry.WatchdogCycles);
  EXPECT_EQ(Stalled.CompletionCycles, Retry.WatchdogCycles);
  EXPECT_EQ(Stalled.busyCycles(), Retry.WatchdogCycles);

  // Transient channel: retry time is attributed, not folded silently into
  // the makespan, and matches the outcome's accounting exactly.
  const ChannelPhaseCycles &Flaky = R.Stats.ChannelPhases[2];
  EXPECT_EQ(R.Outcomes[2].Health, ChannelHealth::Degraded);
  EXPECT_GT(Flaky.RetryCycles, 0);
  EXPECT_EQ(Flaky.RetryCycles, R.Outcomes[2].RetryCycles);
  EXPECT_EQ(Flaky.RetryCycles, Retry.retryCostCycles(2, C.TComp));
  EXPECT_EQ(Flaky.CompletionCycles, R.Outcomes[2].Cycles);
  EXPECT_EQ(Flaky.CompletionCycles,
            Sim.simulateChannel(Trace.Channels[2]) + Flaky.RetryCycles);
}

TEST(AttributionTest, ExportPhaseCountersNames) {
  const bool WasEnabled = observabilityEnabled();
  setObservabilityEnabled(true);
  resetAll();
  ChannelPhaseCycles P;
  P.Channel = 3;
  P.GwriteCycles = 11;
  P.GactCycles = 22;
  P.CompCycles = 33;
  P.ReadResCycles = 44;
  P.RetryCycles = 55;
  exportPhaseCounters({P});

  const auto Counters = Registry::instance().counterSnapshot();
  auto valueOf = [&](const std::string &Name) -> int64_t {
    for (const auto &[N, V] : Counters)
      if (N == Name)
        return V;
    return -1;
  };
  EXPECT_EQ(valueOf("pim.phase_cycles.gwrite.ch3"), 11);
  EXPECT_EQ(valueOf("pim.phase_cycles.g_act.ch3"), 22);
  EXPECT_EQ(valueOf("pim.phase_cycles.comp.ch3"), 33);
  EXPECT_EQ(valueOf("pim.phase_cycles.readres.ch3"), 44);
  EXPECT_EQ(valueOf("pim.phase_cycles.retry.ch3"), 55);
  // No stall time -> no stall counter.
  EXPECT_EQ(valueOf("pim.phase_cycles.stall.ch3"), -1);
  resetAll();
  setObservabilityEnabled(WasEnabled);
}

// End-to-end consistency on a real compiled model: the acceptance
// invariants of the perf report.
TEST(AttributionTest, EngineConsistencyToy) {
  PimFlow Flow(OffloadPolicy::PimFlow);
  const CompileResult R = Flow.compileAndRun(buildToy());
  const AttributionReport A =
      attributeTimeline(R.Transformed, R.Schedule, R.Config);

  // The critical path explains the whole makespan.
  EXPECT_NEAR(A.Critical.LengthNs, R.Schedule.TotalNs,
              1e-6 * R.Schedule.TotalNs);
  ASSERT_FALSE(A.Critical.Steps.empty());
  EXPECT_EQ(A.Critical.Steps.front().Why, CriticalReason::Start);
  EXPECT_NEAR(A.Critical.Steps.back().EndNs, R.Schedule.TotalNs,
              1e-6 * R.Schedule.TotalNs);
  // Every later step is gated by the previous one.
  for (size_t I = 1; I < A.Critical.Steps.size(); ++I) {
    EXPECT_NE(A.Critical.Steps[I].Why, CriticalReason::Start);
    EXPECT_EQ(A.Critical.Steps[I].Blocker, A.Critical.Steps[I - 1].Id);
  }

  // One slack entry per scheduled node; none negative; the last critical
  // step has zero slack by definition.
  EXPECT_EQ(A.Slack.size(), R.Schedule.Nodes.size());
  for (const NodeSlack &S : A.Slack)
    EXPECT_GE(S.SlackNs, 0.0);

  // The GPU lane's merged busy time matches the engine's own accounting
  // (toy schedules no overlapping GPU slices).
  ASSERT_FALSE(A.Lanes.empty());
  EXPECT_NEAR(A.Lanes.front().BusyNs, R.Schedule.GpuBusyNs,
              1e-6 * std::max(1.0, R.Schedule.GpuBusyNs));

  // The toy plan offloads work, so PIM lanes and phase totals exist.
  EXPECT_GE(A.Lanes.size(), 2u);
  EXPECT_FALSE(A.Phases.empty());
}

// Every node the plan covers appears in the decision trail with the mode
// and ratio the DP chose for its segment.
TEST(AttributionTest, DecisionsCoverPlanSegments) {
  PimFlow Flow(OffloadPolicy::PimFlow);
  const CompileResult R = Flow.compileAndRun(buildToy());
  ASSERT_FALSE(R.Plan.Decisions.empty());

  auto decisionOf = [&](NodeId Id) -> const SearchDecision * {
    for (const SearchDecision &D : R.Plan.Decisions)
      if (D.Id == Id)
        return &D;
    return nullptr;
  };
  for (const SegmentPlan &Seg : R.Plan.Segments) {
    for (NodeId Id : Seg.Nodes) {
      const SearchDecision *D = decisionOf(Id);
      ASSERT_NE(D, nullptr);
      EXPECT_EQ(D->ChosenMode, Seg.Mode);
      if (Seg.Mode == SegmentMode::MdDp) {
        EXPECT_DOUBLE_EQ(D->ChosenRatioGpu, Seg.RatioGpu);
      }
      // Every decision carries at least the GPU-only option, and
      // candidates lead with it.
      ASSERT_FALSE(D->Candidates.empty());
      EXPECT_EQ(D->Candidates.front().Mode, SegmentMode::GpuNode);
      EXPECT_DOUBLE_EQ(D->Candidates.front().Ns, D->GpuOnlyNs);
      if (D->PimCandidate) {
        EXPECT_GT(D->Candidates.size(), 1u);
      }
    }
  }
}

// The JSON report reproduces the attribution invariants after a parse
// round-trip (what pf_perf_diff and `pimflow report` consume).
TEST(AttributionTest, PerfReportRoundTrip) {
  PimFlow Flow(OffloadPolicy::PimFlow);
  const CompileResult R = Flow.compileAndRun(buildToy());
  const std::string Json = renderPerfReport(R);

  std::string Error;
  const auto Doc = JsonValue::parse(Json, &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  EXPECT_EQ(Doc->numberOr("schema_version", 0.0), PerfReportSchemaVersion);
  ASSERT_NE(Doc->find("kind"), nullptr);
  EXPECT_EQ(Doc->find("kind")->Str, "pimflow-perf-report");
  EXPECT_NEAR(Doc->numberOr("end_to_end_ns", -1.0), R.endToEndNs(),
              1e-6 * R.endToEndNs());

  const JsonValue *Critical = Doc->find("critical_path");
  const JsonValue *Tl = Doc->find("timeline");
  ASSERT_NE(Critical, nullptr);
  ASSERT_NE(Tl, nullptr);
  // Acceptance invariant: critical-path length == timeline makespan.
  EXPECT_NEAR(Critical->numberOr("length_ns", -1.0),
              Tl->numberOr("total_ns", -2.0), 1e-6 * R.endToEndNs());

  const JsonValue *Decisions = Doc->find("decisions");
  ASSERT_NE(Decisions, nullptr);
  ASSERT_TRUE(Decisions->isArray());
  EXPECT_EQ(Decisions->Array.size(), R.Plan.Decisions.size());

  const JsonValue *Phases = Doc->find("pim_phases");
  ASSERT_NE(Phases, nullptr);
  ASSERT_TRUE(Phases->isArray());
  // Acceptance invariant: phase buckets sum to the attributed busy time.
  for (const JsonValue &P : Phases->Array) {
    const double Sum = P.numberOr("gwrite_cycles", 0) +
                       P.numberOr("g_act_cycles", 0) +
                       P.numberOr("comp_cycles", 0) +
                       P.numberOr("readres_cycles", 0) +
                       P.numberOr("retry_cycles", 0) +
                       P.numberOr("stall_cycles", 0);
    EXPECT_DOUBLE_EQ(P.numberOr("busy_cycles", -1), Sum);
  }

  // The human rendering covers the same sections.
  const std::string Text = renderPerfReportText(*Doc);
  EXPECT_NE(Text.find("critical path"), std::string::npos);
  EXPECT_NE(Text.find("lane"), std::string::npos);
  EXPECT_NE(Text.find("decision"), std::string::npos);
}

namespace {

JsonValue parseOrDie(const std::string &Text) {
  std::string Error;
  auto Doc = JsonValue::parse(Text, &Error);
  EXPECT_TRUE(Doc.has_value()) << Error;
  return Doc ? *Doc : JsonValue{};
}

} // namespace

TEST(PerfDiffTest, SelfDiffIsClean) {
  const JsonValue Doc = parseOrDie(
      R"({"kind":"pimflow-perf-report","end_to_end_ns":100.0,)"
      R"("energy_j":2.0,"conv_layer_ns":60.0,"fc_layer_ns":10.0})");
  const PerfDiffResult R = perfDiff(Doc, Doc);
  EXPECT_FALSE(R.HasRegression);
  EXPECT_TRUE(R.Notes.empty());
  ASSERT_FALSE(R.Deltas.empty());
  for (const MetricDelta &D : R.Deltas) {
    EXPECT_FALSE(D.Regressed);
    EXPECT_DOUBLE_EQ(D.RelChange, 0.0);
  }
}

TEST(PerfDiffTest, FlagsRegressionBeyondThreshold) {
  const JsonValue Base =
      parseOrDie(R"({"end_to_end_ns":100.0,"energy_j":2.0})");
  const JsonValue Cur =
      parseOrDie(R"({"end_to_end_ns":200.0,"energy_j":2.0})");
  const PerfDiffResult R = perfDiff(Base, Cur);
  EXPECT_TRUE(R.HasRegression);
  bool FoundE2e = false;
  for (const MetricDelta &D : R.Deltas)
    if (D.Name == "end_to_end_ns") {
      FoundE2e = true;
      EXPECT_TRUE(D.Regressed);
      EXPECT_DOUBLE_EQ(D.RelChange, 1.0);
    } else {
      EXPECT_FALSE(D.Regressed);
    }
  EXPECT_TRUE(FoundE2e);

  // A generous threshold lets the same delta through.
  PerfDiffOptions Loose;
  Loose.RelThreshold = 1.5;
  EXPECT_FALSE(perfDiff(Base, Cur, Loose).HasRegression);
}

TEST(PerfDiffTest, ImprovementPasses) {
  const JsonValue Base = parseOrDie(R"({"end_to_end_ns":100.0})");
  const JsonValue Cur = parseOrDie(R"({"end_to_end_ns":10.0})");
  EXPECT_FALSE(perfDiff(Base, Cur).HasRegression);
}

TEST(PerfDiffTest, MissingMetricIsARegression) {
  const JsonValue Base =
      parseOrDie(R"({"end_to_end_ns":100.0,"energy_j":2.0})");
  const JsonValue Cur = parseOrDie(R"({"end_to_end_ns":100.0})");
  const PerfDiffResult R = perfDiff(Base, Cur);
  EXPECT_TRUE(R.HasRegression);
  EXPECT_FALSE(R.Notes.empty());
}

TEST(PerfDiffTest, BenchFormatMatchesRowsByFigureAndKey) {
  const JsonValue Base = parseOrDie(
      R"({"results":[)"
      R"({"figure":"F9","key":"a","end_to_end_ns":100.0,"energy_j":1.0},)"
      R"({"figure":"F9","key":"b","end_to_end_ns":50.0,"energy_j":1.0}]})");
  // Row "a" regresses; row "b" vanishes; a new row "c" is fine.
  const JsonValue Cur = parseOrDie(
      R"({"results":[)"
      R"({"figure":"F9","key":"a","end_to_end_ns":150.0,"energy_j":1.0},)"
      R"({"figure":"F9","key":"c","end_to_end_ns":9.0,"energy_j":1.0}]})");
  const PerfDiffResult R = perfDiff(Base, Cur);
  EXPECT_TRUE(R.HasRegression);
  EXPECT_FALSE(R.Notes.empty());

  bool RegressedA = false;
  for (const MetricDelta &D : R.Deltas)
    if (D.Name == "F9/a.end_to_end_ns")
      RegressedA = D.Regressed;
  EXPECT_TRUE(RegressedA);

  // Identical dumps are clean.
  EXPECT_FALSE(perfDiff(Base, Base).HasRegression);
}
