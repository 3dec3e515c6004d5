//===- tests/obs/AnomalyTest.cpp - Anomaly watchdog rules -------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// One firing and one quiet case per watchdog rule, each against a private
// scope so the process-wide registry never leaks in. The default
// thresholds are the ones the driver runs with.
//
//===----------------------------------------------------------------------===//

#include "obs/Anomaly.h"

#include <gtest/gtest.h>

#include "obs/Scope.h"

using namespace pf;
using namespace pf::obs;

namespace {

/// Records \p Count samples into histogram \p Name: all at 10 but the
/// last, which is \p TailFactor times larger. For Count <= 100 the p99
/// rank ceil(0.99 * Count) is that outlier, so p99/p50 is about TailFactor.
void recordTail(const char *Name, int Count, double TailFactor) {
  for (int I = 0; I + 1 < Count; ++I)
    recordMetric(Name, 10.0);
  recordMetric(Name, 10.0 * TailFactor);
}

LaneUsage lane(const char *Name, double BusyNs, double IdleNs) {
  LaneUsage L;
  L.Name = Name;
  L.BusyNs = BusyNs;
  L.IdleNs = IdleNs;
  return L;
}

class AnomalyTest : public ::testing::Test {
protected:
  Scope Run;
  ScopeGuard Guard{Run};
  DiagnosticEngine DE;
};

} // namespace

TEST_F(AnomalyTest, TailRuleFiresOnALongSimulatedTail) {
  const AnomalyRules Rules;
  recordTail("engine.node_duration_ns",
             static_cast<int>(Rules.MinHistogramCount), 1000.0);
  EXPECT_EQ(evaluateAnomalies(DE, nullptr, Rules), 1);
  ASSERT_TRUE(DE.hasCode(DiagCode::AnomalyTailLatency));
  EXPECT_EQ(DE.diagnostics()[0].Context, "engine.node_duration_ns");
  EXPECT_EQ(DE.diagnostics()[0].Severity, DiagSeverity::Warning);
}

TEST_F(AnomalyTest, TailRuleIgnoresTooFewSamples) {
  const AnomalyRules Rules;
  recordTail("engine.node_duration_ns",
             static_cast<int>(Rules.MinHistogramCount) - 1, 1000.0);
  EXPECT_EQ(evaluateAnomalies(DE, nullptr, Rules), 0);
  EXPECT_TRUE(DE.diagnostics().empty());
}

// Wall-clock spans of the same work can reach 100x on a loaded host (a
// healthy parallel compile measured p99/p50 = 122 for
// profiler.measure_wall_us), so the rule judges simulated histograms only.
TEST_F(AnomalyTest, TailRuleSkipsWallClockHistograms) {
  recordTail("profiler.measure_wall_us", 64, 1000.0);
  EXPECT_EQ(evaluateAnomalies(DE, nullptr), 0);
  EXPECT_TRUE(DE.diagnostics().empty());
}

TEST_F(AnomalyTest, IdleGapRuleFiresOnAMostlyIdleLane) {
  AttributionReport A;
  A.Lanes.push_back(lane("gpu", 500.0, 500.0));
  A.Lanes.push_back(lane("pim.ch0", 10.0, 990.0));
  EXPECT_EQ(evaluateAnomalies(DE, &A), 1);
  ASSERT_TRUE(DE.hasCode(DiagCode::AnomalyIdleGap));
  EXPECT_EQ(DE.diagnostics()[0].Context, "pim.ch0");
}

TEST_F(AnomalyTest, IdleGapRuleQuietOnBusyOrUnusedLanes) {
  AttributionReport A;
  A.Lanes.push_back(lane("gpu", 500.0, 500.0));
  // A lane that ran nothing is unused, not anomalous.
  A.Lanes.push_back(lane("pim.ch1", 0.0, 1000.0));
  EXPECT_EQ(evaluateAnomalies(DE, &A), 0);
  EXPECT_TRUE(DE.diagnostics().empty());
}

TEST_F(AnomalyTest, RetryRuleFiresAboveTheBudget) {
  addCounter("pim.sim.fault_runs", 10);
  addCounter("pim.sim.retries", 90);
  EXPECT_EQ(evaluateAnomalies(DE, nullptr), 1);
  EXPECT_TRUE(DE.hasCode(DiagCode::AnomalyRetryRate));
}

TEST_F(AnomalyTest, RetryRuleQuietAtTheBudget) {
  addCounter("pim.sim.fault_runs", 10);
  addCounter("pim.sim.retries", 80);
  EXPECT_EQ(evaluateAnomalies(DE, nullptr), 0);
  EXPECT_TRUE(DE.diagnostics().empty());
}
