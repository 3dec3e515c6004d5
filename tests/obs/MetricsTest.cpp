//===- tests/obs/MetricsTest.cpp - Streaming-metrics unit tests -*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The quantile tests check the histogram's advertised contract directly:
// for closed-form sample sets (uniform, exponential, two-point) every
// reported quantile must be within relErrorBound() of the exact sample at
// rank ceil(Q * N).
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/Counters.h"
#include "obs/Metrics.h"
#include "support/Random.h"

using namespace pf::obs;

namespace {

double exactQuantile(const std::vector<double> &Sorted, double Q) {
  const size_t N = Sorted.size();
  size_t Rank = static_cast<size_t>(std::ceil(Q * static_cast<double>(N)));
  Rank = std::min(std::max<size_t>(Rank, 1), N);
  return Sorted[Rank - 1];
}

void expectBoundedQuantiles(std::vector<double> Values) {
  LogLinearHistogram H;
  for (double V : Values)
    H.record(V);
  std::sort(Values.begin(), Values.end());
  for (double Q : {0.5, 0.9, 0.99, 0.999}) {
    const double Exact = exactQuantile(Values, Q);
    const double Got = H.quantile(Q);
    EXPECT_NEAR(Got, Exact,
                std::abs(Exact) * LogLinearHistogram::relErrorBound() + 1e-12)
        << "quantile " << Q;
  }
}

TEST(LogLinearHistogram, UniformQuantilesWithinBound) {
  std::vector<double> V;
  for (int I = 1; I <= 10000; ++I)
    V.push_back(static_cast<double>(I));
  expectBoundedQuantiles(std::move(V));
}

TEST(LogLinearHistogram, ExponentialQuantilesWithinBound) {
  // Inverse-CDF samples of Exp(1/1000): heavy tail across many octaves.
  std::vector<double> V;
  const int N = 5000;
  for (int I = 0; I < N; ++I)
    V.push_back(-std::log(1.0 - (I + 0.5) / N) * 1000.0);
  expectBoundedQuantiles(std::move(V));
}

TEST(LogLinearHistogram, TwoPointQuantilesWithinBound) {
  // 90% fast mode at 10, 10% slow mode at 1000: p50/p90 sit on the fast
  // mode, p99/p999 on the slow one — the shape anomaly rules look for.
  std::vector<double> V(900, 10.0);
  V.insert(V.end(), 100, 1000.0);
  expectBoundedQuantiles(std::move(V));
}

TEST(LogLinearHistogram, ExactCountSumMinMax) {
  LogLinearHistogram H;
  for (double V : {3.0, 7.0, 11.0, 200.0})
    H.record(V);
  const QuantileStats S = H.stats();
  EXPECT_EQ(S.Count, 4);
  EXPECT_DOUBLE_EQ(S.Sum, 221.0);
  EXPECT_DOUBLE_EQ(S.Min, 3.0);
  EXPECT_DOUBLE_EQ(S.Max, 200.0);
  EXPECT_DOUBLE_EQ(S.RelErrorBound, LogLinearHistogram::relErrorBound());
}

TEST(LogLinearHistogram, ZeroAndNegativeLandInExactZeroBucket) {
  LogLinearHistogram H;
  H.record(0.0);
  H.record(-5.0);
  H.record(0.0);
  H.record(100.0);
  // Ranks 1..3 are the zero bucket (reported exactly), rank 4 is 100.
  EXPECT_DOUBLE_EQ(H.quantile(0.5), 0.0);
  EXPECT_NEAR(H.quantile(0.999), 100.0,
              100.0 * LogLinearHistogram::relErrorBound());
}

TEST(LogLinearHistogram, NonFiniteSamplesDropped) {
  LogLinearHistogram H;
  H.record(std::nan(""));
  H.record(std::numeric_limits<double>::infinity());
  EXPECT_EQ(H.stats().Count, 0);
  H.record(5.0);
  EXPECT_EQ(H.stats().Count, 1);
}

TEST(LogLinearHistogram, QuantilesClampedToObservedRange) {
  LogLinearHistogram H;
  H.record(100.0);
  // A single sample: every quantile must report it exactly (bucket
  // midpoints are clamped to [Min, Max]).
  EXPECT_DOUBLE_EQ(H.quantile(0.001), 100.0);
  EXPECT_DOUBLE_EQ(H.quantile(0.999), 100.0);
}

/// Everything a read of \p H can see: the exact stats, then the quantile
/// at every rank, which pins how many samples each bucket holds.
std::vector<double> histogramView(const LogLinearHistogram &H) {
  const QuantileStats S = H.stats();
  std::vector<double> V = {static_cast<double>(S.Count), S.Sum, S.Min, S.Max};
  for (int64_t Rank = 1; Rank <= S.Count; ++Rank)
    V.push_back(H.quantile((static_cast<double>(Rank) - 0.5) /
                           static_cast<double>(S.Count)));
  return V;
}

TEST(LogLinearHistogramTest, WeightedRecordMatchesRepeatedRecords) {
  // Integer samples across many octaves (zeros included), the way the
  // simulator records a replicated channel group's cycle counts.
  pf::Rng Rng(19);
  LogLinearHistogram Weighted, Repeated;
  for (int Round = 0; Round < 300; ++Round) {
    const double X = static_cast<double>(
        Rng.nextBelow(uint64_t{1} << (Rng.nextBelow(32) + 1)));
    const int64_t N = static_cast<int64_t>(Rng.nextBelow(64)) + 1;
    Weighted.record(X, N);
    for (int64_t I = 0; I < N; ++I) // The loop the weighted record replaces.
      Repeated.record(X);
  }
  EXPECT_EQ(histogramView(Weighted), histogramView(Repeated));
  Weighted.record(7.0, 0); // No samples: no change.
  EXPECT_EQ(histogramView(Weighted), histogramView(Repeated));
}

class RegistryTest : public ::testing::Test {
protected:
  void SetUp() override {
    Registry::instance().reset();
    WasEnabled = Registry::instance().enabled();
    Registry::instance().setEnabled(true);
  }
  void TearDown() override {
    Registry::instance().reset();
    Registry::instance().setEnabled(WasEnabled);
  }
  bool WasEnabled = false;
};

TEST_F(RegistryTest, SnapshotsAreNameSorted) {
  recordMetric("unit.zz_last", 1.0);
  recordMetric("unit.aa_first", 1.0);
  recordMetric("unit.mm_middle", 1.0);
  const auto Snap = Registry::instance().histogramSnapshot();
  ASSERT_EQ(Snap.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      Snap.begin(), Snap.end(),
      [](const auto &A, const auto &B) { return A.first < B.first; }));
}

TEST_F(RegistryTest, DisabledRecordingIsDropped) {
  Registry::instance().setEnabled(false);
  recordMetric("unit.gated", 1.0);
  Registry::instance().setEnabled(true);
  EXPECT_TRUE(Registry::instance().histogramSnapshot().empty());
}

TEST_F(RegistryTest, PrometheusRenderCarriesQuantileSamples) {
  for (int I = 1; I <= 100; ++I)
    recordMetric("unit.render-latency", static_cast<double>(I));
  const std::string Text = renderPrometheus();
  EXPECT_NE(Text.find("# TYPE pimflow_unit_render_latency summary"),
            std::string::npos);
  EXPECT_NE(Text.find("pimflow_unit_render_latency{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(Text.find("pimflow_unit_render_latency{quantile=\"0.999\"}"),
            std::string::npos);
  EXPECT_NE(Text.find("pimflow_unit_render_latency_count 100"),
            std::string::npos);
  // Sanitizer: dots and dashes never reach the exposition.
  EXPECT_EQ(Text.find("unit.render"), std::string::npos);
  EXPECT_EQ(Text.find("render-latency"), std::string::npos);
}

} // namespace
