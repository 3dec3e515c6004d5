//===- tests/core/ReportTest.cpp - report generator tests -------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Report.h"

#include <gtest/gtest.h>

#include "models/Zoo.h"
#include "obs/Json.h"
#include "obs/PerfReport.h"

using namespace pf;

TEST(ReportTest, StatsCoverAllScheduledNodes) {
  CompileResult R = PimFlow(OffloadPolicy::PimFlow).compileAndRun(buildToy());
  ExecutionStats S = computeStats(R);
  EXPECT_EQ(static_cast<size_t>(S.GpuKernels + S.PimKernels +
                                S.FusedOrFreeNodes),
            R.Schedule.Nodes.size());
  EXPECT_GT(S.PimKernels, 0);
  EXPECT_GT(S.GpuKernels, 0);
}

TEST(ReportTest, PimCommandCountsPositiveWhenOffloaded) {
  CompileResult R =
      PimFlow(OffloadPolicy::NewtonPlusPlus).compileAndRun(buildToy());
  ExecutionStats S = computeStats(R);
  if (S.PimKernels > 0) {
    EXPECT_GT(S.PimGwriteBursts, 0);
    EXPECT_GT(S.PimCompColumns, 0);
    EXPECT_GT(S.PimWeightBytes, 0);
  }
}

TEST(ReportTest, GpuOnlyHasNoPimActivity) {
  CompileResult R = PimFlow(OffloadPolicy::GpuOnly).compileAndRun(buildToy());
  ExecutionStats S = computeStats(R);
  EXPECT_EQ(S.PimKernels, 0);
  EXPECT_EQ(S.PimCompColumns, 0);
  EXPECT_EQ(S.PimWeightBytes, 0);
  EXPECT_EQ(S.PimBusyFraction, 0.0);
}

TEST(ReportTest, BusyFractionsBounded) {
  CompileResult R =
      PimFlow(OffloadPolicy::PimFlow).compileAndRun(buildMobileNetV2());
  ExecutionStats S = computeStats(R);
  EXPECT_GE(S.GpuBusyFraction, 0.0);
  EXPECT_LE(S.GpuBusyFraction, 1.0 + 1e-9);
  EXPECT_GE(S.PimBusyFraction, 0.0);
  EXPECT_LE(S.PimBusyFraction, 1.0 + 1e-9);
}

TEST(ReportTest, RenderedReportHasSections) {
  CompileResult R = PimFlow(OffloadPolicy::PimFlow).compileAndRun(buildToy());
  const std::string Text = renderReport(R);
  EXPECT_NE(Text.find("PIMFlow report"), std::string::npos);
  EXPECT_NE(Text.find("segments:"), std::string::npos);
  EXPECT_NE(Text.find("COMP columns"), std::string::npos);
  EXPECT_NE(Text.find("gpu |"), std::string::npos);
  EXPECT_NE(Text.find("pim |"), std::string::npos);
}

TEST(ReportTest, WeightPlacementSplitsByDevice) {
  // VGG's FC weights (~270 MB) move to PIM under Newton+.
  CompileResult R =
      PimFlow(OffloadPolicy::NewtonPlus).compileAndRun(buildVgg16());
  ExecutionStats S = computeStats(R);
  EXPECT_GT(S.PimWeightBytes, 200'000'000);
  EXPECT_GT(S.GpuWeightBytes, 10'000'000); // Conv weights stay.
}

TEST(ReportTest, PerfReportStatsMatchComputeStats) {
  CompileResult R = PimFlow(OffloadPolicy::PimFlow).compileAndRun(buildToy());
  const ExecutionStats S = computeStats(R);

  const auto Doc = obs::JsonValue::parse(obs::renderPerfReport(
      R, obs::attributeTimeline(R.Transformed, R.Schedule, R.Config)));
  ASSERT_TRUE(Doc.has_value());
  EXPECT_EQ(Doc->find("model")->Str, R.Transformed.name());
  EXPECT_EQ(Doc->find("policy")->Str, policyName(R.Policy));
  EXPECT_DOUBLE_EQ(Doc->numberOr("end_to_end_ns", -1.0), R.endToEndNs());

  const obs::JsonValue *J = Doc->find("stats");
  ASSERT_NE(J, nullptr);
  // Every command total must match the prose report's source of truth
  // exactly (renderPerfReport and renderReport both serialize
  // computeStats).
  EXPECT_EQ(J->numberOr("gpu_kernels", -1), S.GpuKernels);
  EXPECT_EQ(J->numberOr("pim_kernels", -1), S.PimKernels);
  EXPECT_EQ(J->numberOr("fused_or_free_nodes", -1), S.FusedOrFreeNodes);
  EXPECT_EQ(J->numberOr("pim_gwrite_bursts", -1),
            static_cast<double>(S.PimGwriteBursts));
  EXPECT_EQ(J->numberOr("pim_g_acts", -1), static_cast<double>(S.PimGActs));
  EXPECT_EQ(J->numberOr("pim_comp_columns", -1),
            static_cast<double>(S.PimCompColumns));
  EXPECT_EQ(J->numberOr("pim_read_res", -1),
            static_cast<double>(S.PimReadRes));
  EXPECT_EQ(J->numberOr("pim_weight_bytes", -1),
            static_cast<double>(S.PimWeightBytes));
  EXPECT_EQ(J->numberOr("gpu_weight_bytes", -1),
            static_cast<double>(S.GpuWeightBytes));
  EXPECT_DOUBLE_EQ(J->numberOr("gpu_busy_fraction", -1.0),
                   S.GpuBusyFraction);
  EXPECT_DOUBLE_EQ(J->numberOr("pim_busy_fraction", -1.0),
                   S.PimBusyFraction);

  const obs::JsonValue *TL = Doc->find("timeline");
  ASSERT_NE(TL, nullptr);
  EXPECT_DOUBLE_EQ(TL->numberOr("total_ns", -1.0), R.Schedule.TotalNs);
  EXPECT_EQ(TL->numberOr("scheduled_nodes", -1),
            static_cast<double>(R.Schedule.Nodes.size()));
}

TEST(ReportTest, HbmPimPresetDiffers) {
  const PimConfig Hbm = PimConfig::hbmPim();
  const PimConfig Aim = PimConfig::newtonPlusPlus();
  EXPECT_NE(Hbm.BanksPerChannel, Aim.BanksPerChannel);
  EXPECT_LT(Hbm.ClockGhz, Aim.ClockGhz);
  EXPECT_LT(Hbm.macsPerComp(), Aim.macsPerComp());
}
