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

TEST(SlidingWindow, TrailingSpanAndRecycling) {
  SlidingWindow W(TickDomain::SimCycles, 10, 4); // span = 40 ticks
  W.record(5, 1.0);
  W.record(15, 2.0);
  W.record(25, 3.0);
  W.record(35, 4.0);
  WindowStats S = W.stats(35);
  EXPECT_EQ(S.Count, 4);
  EXPECT_DOUBLE_EQ(S.Sum, 10.0);
  EXPECT_EQ(S.SpanTicks, 40);

  // Jump far ahead: the slot holding tick 35's bucket is recycled and the
  // older epochs age out of the trailing span.
  W.record(75, 5.0);
  S = W.stats(75);
  EXPECT_EQ(S.Count, 1);
  EXPECT_DOUBLE_EQ(S.Sum, 5.0);
}

TEST(SlidingWindow, StaleBucketsExcludedWithoutRewrite) {
  SlidingWindow W(TickDomain::WallUs, 100, 2); // span = 200 ticks
  W.record(50, 7.0);
  EXPECT_EQ(W.stats(50).Count, 1);
  // Reading far in the future must not count the stale bucket even though
  // its slot was never rewritten.
  EXPECT_EQ(W.stats(10'000).Count, 0);
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

/// Everything a read of \p W can see: its trailing-span count and sum at
/// every epoch up to one span past \p LastTick, which tells each bucket's
/// contents apart.
std::vector<std::pair<int64_t, double>>
windowView(const SlidingWindow &W, int64_t Width, int64_t LastTick) {
  std::vector<std::pair<int64_t, double>> V;
  for (int64_t Now = 0; Now <= LastTick + 9 * Width; Now += Width) {
    const WindowStats S = W.stats(Now);
    V.emplace_back(S.Count, S.Sum);
  }
  return V;
}

struct Series {
  int64_t Start, Step, N;
  double X;
};

/// Records \p Stream into a window once as series and once as the single
/// records each series replaces, and compares what reads see.
void expectSeriesMatchRecords(const std::vector<Series> &Stream) {
  constexpr int64_t Width = 10; // 8 buckets: an 80-tick span.
  SlidingWindow Batched(TickDomain::SimCycles, Width);
  SlidingWindow Repeated(TickDomain::SimCycles, Width);
  int64_t LastTick = 0;
  for (const Series &S : Stream) {
    Batched.recordSeries(S.Start, S.Step, S.N, S.X);
    for (int64_t K = 1; K <= S.N; ++K)
      Repeated.record(S.Start + K * S.Step, S.X);
    LastTick = std::max(LastTick, S.Start + S.N * S.Step);
  }
  EXPECT_EQ(windowView(Batched, Width, LastTick),
            windowView(Repeated, Width, LastTick))
      << Stream.size() << " series from tick " << Stream.front().Start;
}

TEST(SlidingWindowTest, SeriesRecordMatchesRepeatedRecords) {
  expectSeriesMatchRecords({{3, 4, 20, 4.0}});   // Crosses bucket boundaries.
  expectSeriesMatchRecords({{0, 7, 100, 7.0}});  // 70 buckets: the ring wraps.
  expectSeriesMatchRecords({{2, 25, 6, 25.0}});  // Steps skip whole epochs.
  expectSeriesMatchRecords({{40, 0, 5, 3.0}});   // Step 0: one tick.
  expectSeriesMatchRecords({{44, 9, 1, 9.0}});   // One sample.
  expectSeriesMatchRecords({{50, 10, 3, 10.0}}); // On bucket boundaries.

  // A seeded stream of groups on one advancing clock, as the simulator
  // records replicated channels.
  pf::Rng Rng(19);
  std::vector<Series> Stream;
  for (int64_t Clock = 0; Stream.size() < 200;) {
    const int64_t Step = static_cast<int64_t>(Rng.nextBelow(30));
    const int64_t N = static_cast<int64_t>(Rng.nextBelow(16)) + 1;
    Stream.push_back({Clock, Step, N, static_cast<double>(Step)});
    Clock += N * Step + static_cast<int64_t>(Rng.nextBelow(3));
  }
  expectSeriesMatchRecords(Stream);
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
  setGauge("unit.gated_gauge", 1.0);
  Registry::instance().setEnabled(true);
  EXPECT_TRUE(Registry::instance().histogramSnapshot().empty());
  EXPECT_TRUE(Registry::instance().gaugeSnapshot().empty());
}

TEST_F(RegistryTest, WindowedRecordFeedsBothViews) {
  recordMetricWindowed("unit.windowed", TickDomain::SimCycles, 100,
                       /*Tick=*/50, 42.0);
  const auto Hists = Registry::instance().histogramSnapshot();
  ASSERT_EQ(Hists.size(), 1u);
  EXPECT_EQ(Hists[0].second.Count, 1);
  const auto Wins = Registry::instance().windowSnapshot();
  ASSERT_EQ(Wins.size(), 1u);
  EXPECT_EQ(Wins[0].second.Count, 1);
  EXPECT_DOUBLE_EQ(Wins[0].second.Sum, 42.0);
}

TEST_F(RegistryTest, CycleClockAdvancesAndResets) {
  advanceSimCycles(123);
  advanceSimCycles(77);
  EXPECT_EQ(Registry::instance().cycles(), 200);
  Registry::instance().reset();
  EXPECT_EQ(Registry::instance().cycles(), 0);
}

TEST_F(RegistryTest, PrometheusRenderCarriesQuantileSamples) {
  for (int I = 1; I <= 100; ++I)
    recordMetric("unit.render-latency", static_cast<double>(I));
  setGauge("unit.render_gauge", 3.5);
  const std::string Text = renderPrometheus();
  EXPECT_NE(Text.find("# TYPE pimflow_unit_render_latency summary"),
            std::string::npos);
  EXPECT_NE(Text.find("pimflow_unit_render_latency{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(Text.find("pimflow_unit_render_latency{quantile=\"0.999\"}"),
            std::string::npos);
  EXPECT_NE(Text.find("pimflow_unit_render_latency_count 100"),
            std::string::npos);
  EXPECT_NE(Text.find("# TYPE pimflow_unit_render_gauge gauge"),
            std::string::npos);
  // Sanitizer: dots and dashes never reach the exposition.
  EXPECT_EQ(Text.find("unit.render"), std::string::npos);
  EXPECT_EQ(Text.find("render-latency"), std::string::npos);
}

} // namespace
