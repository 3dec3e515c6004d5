//===- tests/obs/PerfReportTest.cpp - Perf report contents ------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The perf report is the one machine-readable export of a run: its numbers
// are the CompileResult's, its `stats` are computeStats', and its metrics
// section carries every registry histogram. Rendering it (or any other
// exporter) must not add to the telemetry it reports.
//
//===----------------------------------------------------------------------===//

#include "obs/PerfReport.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "core/PimFlow.h"
#include "models/Zoo.h"
#include "obs/ChromeTrace.h"
#include "obs/Json.h"
#include "obs/Scope.h"

using namespace pf;
using namespace pf::obs;

namespace {

JsonValue reportOf(const CompileResult &R) {
  std::string Error;
  auto Doc = JsonValue::parse(
      renderPerfReport(
          R, attributeTimeline(R.Transformed, R.Schedule, R.Config)),
      &Error);
  EXPECT_TRUE(Doc.has_value()) << Error;
  return Doc ? *Doc : JsonValue{};
}

/// What a scope has recorded: counters and histogram totals.
struct Recorded {
  std::vector<std::pair<std::string, int64_t>> Counters;
  std::vector<std::tuple<std::string, int64_t, double>> Histograms;

  explicit Recorded(const Registry &Reg) : Counters(Reg.counterSnapshot()) {
    for (const auto &[Name, Q] : Reg.histogramSnapshot())
      Histograms.emplace_back(Name, Q.Count, Q.Sum);
  }
};

} // namespace

// The emitted document parses back and its numbers are the CompileResult's
// numbers — golden round-trip through the obs::Json parser.
TEST(PerfReportTest, RoundTripMatchesCompileResult) {
  PimFlow Flow(OffloadPolicy::PimFlow);
  const CompileResult R = Flow.compileAndRun(buildToy());
  const JsonValue Doc = reportOf(R);

  ASSERT_NE(Doc.find("model"), nullptr);
  EXPECT_EQ(Doc.find("model")->Str, R.Transformed.name());
  ASSERT_NE(Doc.find("policy"), nullptr);
  EXPECT_EQ(Doc.find("policy")->Str, policyName(R.Policy));
  EXPECT_DOUBLE_EQ(Doc.numberOr("end_to_end_ns", -1.0), R.endToEndNs());
  EXPECT_DOUBLE_EQ(Doc.numberOr("energy_j", -1.0), R.energyJ());
  EXPECT_DOUBLE_EQ(Doc.numberOr("conv_layer_ns", -1.0), R.ConvLayerNs);
  EXPECT_DOUBLE_EQ(Doc.numberOr("fc_layer_ns", -1.0), R.FcLayerNs);

  const JsonValue *Tl = Doc.find("timeline");
  ASSERT_NE(Tl, nullptr);
  EXPECT_DOUBLE_EQ(Tl->numberOr("total_ns", -1.0), R.Schedule.TotalNs);
  EXPECT_DOUBLE_EQ(Tl->numberOr("gpu_busy_ns", -1.0), R.Schedule.GpuBusyNs);
  EXPECT_DOUBLE_EQ(Tl->numberOr("pim_busy_ns", -1.0), R.Schedule.PimBusyNs);
  EXPECT_DOUBLE_EQ(Tl->numberOr("energy_j", -1.0), R.Schedule.EnergyJ);

  // The segment census counts every planned segment exactly once.
  const JsonValue *Segments = Doc.find("segments");
  ASSERT_NE(Segments, nullptr);
  const double Census = Segments->numberOr("gpu", 0) +
                        Segments->numberOr("pim", 0) +
                        Segments->numberOr("md_dp", 0) +
                        Segments->numberOr("pipeline", 0);
  EXPECT_DOUBLE_EQ(Census, static_cast<double>(R.Plan.Segments.size()));

  ASSERT_NE(Doc.find("counters"), nullptr);
  EXPECT_TRUE(Doc.find("counters")->isObject());
}

// A fault-free run reports no recovery section; a faulted one does, and
// the numbers survive the round-trip.
TEST(PerfReportTest, RecoverySectionOnlyWhenActive) {
  PimFlow Clean(OffloadPolicy::PimFlow);
  const CompileResult R = Clean.compileAndRun(buildToy());
  EXPECT_EQ(reportOf(R).find("recovery"), nullptr);

  PimFlowOptions Options;
  Options.FaultSpec = "dead:0";
  PimFlow Faulted(OffloadPolicy::PimFlow, Options);
  const CompileResult RF = Faulted.compileAndRun(buildToy());
  ASSERT_TRUE(RF.Recovery);
  const JsonValue Doc = reportOf(RF);
  const JsonValue *Rec = Doc.find("recovery");
  ASSERT_NE(Rec, nullptr);
  EXPECT_DOUBLE_EQ(Rec->numberOr("dead_channels", -1.0),
                   RF.Recovery->DeadChannels);
  EXPECT_DOUBLE_EQ(Rec->numberOr("surviving_channels", -1.0),
                   RF.Recovery->SurvivingChannels);
}

// A cold compile measures candidates and plans segments; the report's
// metrics section carries both distributions with exact count, sum, min
// and max.
TEST(PerfReportTest, CarriesSearchHistogramsAfterColdCompile) {
  Scope Run;
  ScopeGuard Guard(Run);
  const CompileResult R =
      PimFlow(OffloadPolicy::PimFlow).compileAndRun(buildToy());
  const JsonValue Doc = reportOf(R);

  const JsonValue *Hists = Doc.find("metrics");
  ASSERT_NE(Hists, nullptr);
  Hists = Hists->find("histograms");
  ASSERT_NE(Hists, nullptr);
  for (const char *Name :
       {"profiler.measure_wall_us", "search.segment_predicted_us"}) {
    SCOPED_TRACE(Name);
    const JsonValue *H = Hists->find(Name);
    ASSERT_NE(H, nullptr);
    const QuantileStats Q = Run.registry().histogram(Name).stats();
    ASSERT_GT(Q.Count, 0);
    EXPECT_EQ(H->numberOr("count", -1.0), static_cast<double>(Q.Count));
    EXPECT_DOUBLE_EQ(H->numberOr("sum", -1.0), Q.Sum);
    EXPECT_DOUBLE_EQ(H->numberOr("min", -1.0), Q.Min);
    EXPECT_DOUBLE_EQ(H->numberOr("max", -1.0), Q.Max);
    EXPECT_LE(Q.Min, Q.Max);
  }
  // One predicted-time sample per planned segment.
  EXPECT_EQ(Hists->find("search.segment_predicted_us")->numberOr("count", 0),
            static_cast<double>(R.Plan.Segments.size()));
}

// Exporters read the timeline's kernel records; no export may add to the
// run's telemetry, or each export flag would inflate the counters the
// others report.
TEST(PerfReportTest, ExportersRecordNothingIntoTheRun) {
  Scope Run;
  ScopeGuard Guard(Run);
  const CompileResult R =
      PimFlow(OffloadPolicy::PimFlow).compileAndRun(buildToy());
  const Recorded Before(Run.registry());
  ASSERT_FALSE(Before.Counters.empty());

  (void)computeStats(R);
  (void)renderReport(R);
  const AttributionReport A =
      attributeTimeline(R.Transformed, R.Schedule, R.Config);
  (void)renderPerfReport(R, A);
  (void)renderChromeTrace(R);
  (void)renderPrometheus();

  const Recorded After(Run.registry());
  EXPECT_EQ(After.Counters, Before.Counters);
  EXPECT_EQ(After.Histograms, Before.Histograms);
}

// Recovery remaps the kernels of a run with dead channels onto the
// survivors; every export describes those remapped plans, with PIM lane k
// the k-th surviving channel, not a fault-free re-plan over all channels.
TEST(PerfReportTest, RemappedRunExportsThePlanThatRan) {
  PimFlowOptions Options;
  Options.FaultSpec = "dead:3,dead:7";
  const CompileResult R =
      PimFlow(OffloadPolicy::PimFlow, Options).compileAndRun(buildToy());
  ASSERT_TRUE(R.Recovery);
  ASSERT_EQ(R.Recovery->SurvivingChannels, 14);
  ASSERT_GT(R.Recovery->NodesRemapped, 0);

  const AttributionReport A =
      attributeTimeline(R.Transformed, R.Schedule, R.Config);
  std::vector<std::string> PimLanes;
  for (const LaneUsage &L : A.Lanes)
    if (L.Channel >= 0)
      PimLanes.push_back(L.Name);
  std::vector<std::string> Expected;
  for (int Ch = 0; Ch < 14; ++Ch)
    Expected.push_back("pim.ch" + std::to_string(Ch));
  EXPECT_EQ(PimLanes, Expected);
  ASSERT_EQ(A.Phases.size(), 14u);
  EXPECT_EQ(A.Phases.back().Channel, 13);

  // Chrome-trace track 1 + k is PIM channel k: no track for 14 or 15.
  std::string Error;
  const auto Trace = JsonValue::parse(renderChromeTrace(R), &Error);
  ASSERT_TRUE(Trace.has_value()) << Error;
  const JsonValue *Events = Trace->find("traceEvents");
  ASSERT_NE(Events, nullptr);
  double MaxTid = -1.0;
  for (const JsonValue &E : Events->Array)
    if (E.numberOr("pid", 0.0) == 2.0)
      MaxTid = std::max(MaxTid, E.numberOr("tid", -1.0));
  EXPECT_EQ(MaxTid, 14.0);

  const ExecutionStats S = computeStats(R);
  int64_t Gwrite = 0, GActs = 0, Comp = 0, ReadRes = 0;
  for (const PimKernelRecord &K : R.Schedule.Kernels) {
    Gwrite += K.GwriteBursts;
    GActs += K.GActs;
    Comp += K.CompColumns;
    ReadRes += K.ReadResCmds;
  }
  EXPECT_EQ(S.PimKernels, static_cast<int>(R.Schedule.Kernels.size()));
  EXPECT_EQ(S.PimGwriteBursts, Gwrite);
  EXPECT_EQ(S.PimGActs, GActs);
  EXPECT_EQ(S.PimCompColumns, Comp);
  EXPECT_EQ(S.PimReadRes, ReadRes);
}
