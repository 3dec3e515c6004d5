//===- obs/Metrics.h - Metric types and Prometheus exposition ---*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metric types the telemetry registry (obs/Counters.h, docs/
/// INTERNALS.md section 11) holds: int64 counters, gauges, log-linear
/// (HDR-style) histograms with error-bounded quantiles, and sliding
/// time-windowed views, plus the Prometheus exposition of the active
/// registry.
///
/// The log-linear histogram buckets values by octave (power of two), each
/// octave split into `SubBucketsPerOctave` linear sub-buckets, so any
/// reported quantile is within a relative error of
/// `1 / (2 * SubBucketsPerOctave)` of the true sample at that rank —
/// `relErrorBound()` reports the bound and the exporters carry it next to
/// the quantiles so downstream gates know the resolution they diff at.
/// Count, sum, min and max are exact.
///
/// Sliding windows answer "what happened recently" in one of two tick
/// domains: wall-clock microseconds (`Tracer::nowUs`) or simulated PIM
/// cycles (the registry-owned logical clock the simulator advances).
/// A window is a ring of `NumBuckets` accumulator buckets of fixed tick
/// width; reading sums the buckets that fall inside the trailing span.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_OBS_METRICS_H
#define PIMFLOW_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pf::obs {

/// A named int64 counter (values may also go down; "counter" refers to the
/// aggregation, not a monotonicity contract). Relaxed atomics, safe to
/// bump from concurrent threads.
class Counter {
public:
  void add(int64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  int64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<int64_t> V{0};
};

/// A point-in-time scalar (last write wins, no aggregation).
class Gauge {
public:
  void set(double X) { V.store(X, std::memory_order_relaxed); }
  double value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0.0, std::memory_order_relaxed); }

private:
  std::atomic<double> V{0.0};
};

/// Summary of a log-linear histogram: exact count/sum/min/max plus
/// bounded-error quantiles.
struct QuantileStats {
  int64_t Count = 0;
  double Sum = 0.0;
  double Min = 0.0;
  double Max = 0.0;
  double P50 = 0.0;
  double P90 = 0.0;
  double P99 = 0.0;
  double P999 = 0.0;
  /// Maximum relative error of any quantile above vs. the true sample.
  double RelErrorBound = 0.0;

  double mean() const { return Count > 0 ? Sum / Count : 0.0; }
};

/// A log-linear scalar distribution with bounded-error quantiles. Values
/// are expected non-negative (latencies, cycle counts, byte sizes);
/// non-positive samples land in an exact zero bucket and non-finite
/// samples are dropped.
class LogLinearHistogram {
public:
  /// Linear sub-buckets per power-of-two octave. 32 bounds the relative
  /// quantile error at 1/64 ≈ 1.6%.
  static constexpr int SubBucketsPerOctave = 32;

  /// Records \p N samples of value \p X (none when \p N <= 0). Count,
  /// buckets, min and max come out as N single records would leave them;
  /// so does Sum whenever X * k is exact for every k <= N, as it is for
  /// integers whose partial sums stay below 2^53 (cycle counts).
  void record(double X, int64_t N = 1);
  /// Quantile \p Q in [0, 1] under the rank rule `ceil(Q * Count)`;
  /// relative error vs. the true sample at that rank is at most
  /// relErrorBound(). Returns 0 when empty.
  double quantile(double Q) const;
  QuantileStats stats() const;
  void reset();

  static constexpr double relErrorBound() {
    return 1.0 / (2.0 * SubBucketsPerOctave);
  }

private:
  double quantileLocked(double Q) const;

  mutable std::mutex Mu;
  /// Sparse bucket counts keyed by octave * SubBucketsPerOctave + sub;
  /// key order equals value order, which is what quantileLocked walks.
  std::map<int32_t, int64_t> Buckets;
  int64_t ZeroCount = 0;
  int64_t Count = 0;
  double Sum = 0.0;
  double Min = 0.0;
  double Max = 0.0;
};

/// Which logical clock a sliding window is keyed by.
enum class TickDomain : uint8_t {
  WallUs,    ///< wall-clock microseconds (obs::Tracer::nowUs)
  SimCycles, ///< simulated PIM cycles (the registry's cycle clock)
};

const char *tickDomainName(TickDomain D);

/// Point-in-time view over a window's trailing span.
struct WindowStats {
  TickDomain Domain = TickDomain::WallUs;
  int64_t BucketWidth = 0; ///< ticks per bucket
  int64_t SpanTicks = 0;   ///< BucketWidth * NumBuckets
  int64_t Count = 0;       ///< samples inside the trailing span
  double Sum = 0.0;

  double mean() const { return Count > 0 ? Sum / Count : 0.0; }
};

/// A ring of accumulator buckets over a tick domain. Thread-safe; stale
/// buckets are lazily recycled when their slot is rewritten.
class SlidingWindow {
public:
  SlidingWindow(TickDomain D, int64_t BucketWidth, int NumBuckets = 8);

  void record(int64_t Tick, double X) { recordSeries(Tick, 0, 1, X); }
  /// Records \p N samples of value \p X at the ticks Start + k * Step for
  /// k = 1..N (\p Step >= 0): the buckets, ring recycling included, end
  /// up as the N single records in that order would leave them, with
  /// Sum under LogLinearHistogram::record's exactness condition.
  void recordSeries(int64_t Start, int64_t Step, int64_t N, double X);
  WindowStats stats(int64_t NowTick) const;
  TickDomain domain() const { return Dom; }
  void reset();

private:
  struct Bucket {
    int64_t Epoch = -1;
    int64_t Count = 0;
    double Sum = 0.0;
  };

  TickDomain Dom;
  int64_t Width;
  mutable std::mutex Mu;
  std::vector<Bucket> Buckets;
};

/// Renders every metric of the active registry (obs/Counters.h) —
/// counters, gauges, HDR histograms and windows — in the Prometheus text
/// exposition format, sorted by metric name within each section. HDR
/// histograms become `summary`
/// families with p50/p90/p99/p999 `quantile` samples plus `_sum` and
/// `_count`. Names are sanitized (`.` and `-` become `_`) and prefixed
/// with `pimflow_`.
std::string renderPrometheus();

/// Writes renderPrometheus() to \p Path; returns false on I/O error.
bool writeMetricsText(const std::string &Path);

} // namespace pf::obs

#endif // PIMFLOW_OBS_METRICS_H
