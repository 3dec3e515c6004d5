//===- obs/Counters.h - The telemetry registry ------------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one telemetry registry: named counters, gauges, HDR histograms,
/// sliding windows (metric types in obs/Metrics.h) and the simulated-cycle
/// clock, behind one enable flag. The process-wide registry lives behind
/// `Registry::instance()`; session scopes (obs/Scope.h) own private ones.
/// Naming convention (see docs/INTERNALS.md section 6): `<module>.<metric>`
/// in lower snake case, with an optional `.ch<N>` suffix for
/// per-PIM-channel metrics — e.g. `profiler.cache_hits`,
/// `search.dp_states`, `pim.comp_columns.ch3`.
///
/// Like the tracer, the registry is disabled by default and the recording
/// helpers (`obs::addCounter`, `obs::recordMetric`, ...) early-out on one
/// relaxed atomic load, so call sites can live in hot paths. An enabled
/// lookup takes the registry lock and a map search, so a hot path looks
/// each metric up once per plan, execution, pass or replicated channel
/// group and adds or records its whole batch there (docs/INTERNALS.md
/// section 6).
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_OBS_COUNTERS_H
#define PIMFLOW_OBS_COUNTERS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/Metrics.h"

namespace pf::obs {

/// A metric registry. Returned references stay valid for the registry's
/// lifetime; reset() zeroes values but never invalidates them.
class Registry {
public:
  Registry() = default;

  static Registry &instance();

  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }
  void setEnabled(bool On) {
    Enabled.store(On, std::memory_order_relaxed);
  }

  /// Finds or creates the metric named \p Name; finding one builds no
  /// string. A window's domain and width are fixed by its first
  /// registration.
  Counter &counter(std::string_view Name);
  Gauge &gauge(std::string_view Name);
  LogLinearHistogram &histogram(std::string_view Name);
  SlidingWindow &window(std::string_view Name, TickDomain D,
                        int64_t BucketWidth);

  /// The simulated-cycle logical clock (TickDomain::SimCycles). Advanced
  /// by the PIM simulator as it retires work; monotonic until reset().
  /// Returns the clock this advance took it to.
  int64_t advanceCycles(int64_t N) {
    return CycleClock.fetch_add(N, std::memory_order_relaxed) + N;
  }
  int64_t cycles() const {
    return CycleClock.load(std::memory_order_relaxed);
  }

  /// Snapshots, sorted by name (goldens and diffs depend on it): counters
  /// and gauges with a non-zero value, histograms with at least one
  /// sample, and windows with at least one sample inside the trailing
  /// span, each evaluated at its domain's current tick.
  std::vector<std::pair<std::string, int64_t>> counterSnapshot() const;
  std::vector<std::pair<std::string, double>> gaugeSnapshot() const;
  std::vector<std::pair<std::string, QuantileStats>> histogramSnapshot() const;
  std::vector<std::pair<std::string, WindowStats>> windowSnapshot() const;

  /// Zeroes every metric and the cycle clock (registrations survive).
  void reset();

private:
  std::atomic<bool> Enabled{false};
  std::atomic<int64_t> CycleClock{0};
  mutable std::mutex Mu;
  // Transparent comparators: lookups by string_view build no key.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> Gauges;
  std::map<std::string, std::unique_ptr<LogLinearHistogram>, std::less<>>
      Histograms;
  std::map<std::string, std::unique_ptr<SlidingWindow>, std::less<>> Windows;
};

/// The registry obs helpers route to on this thread: the installed
/// session scope's (obs/Scope.h) when a ScopeGuard is live, the global
/// `Registry::instance()` otherwise. Defined in Scope.cpp.
Registry &activeRegistry();

/// Bumps counter \p Name by \p N when the active registry is enabled.
/// Disabled call sites cost one thread-local read plus one atomic load.
inline void addCounter(std::string_view Name, int64_t N = 1) {
  Registry &R = activeRegistry();
  if (R.enabled())
    R.counter(Name).add(N);
}

/// Records \p X into HDR histogram \p Name when the registry is enabled.
inline void recordMetric(std::string_view Name, double X) {
  Registry &R = activeRegistry();
  if (R.enabled())
    R.histogram(Name).record(X);
}

/// Records \p X into both the HDR histogram \p Name and its sliding
/// window (same name, domain \p D, \p BucketWidth ticks per bucket) at
/// tick \p Tick.
void recordMetricWindowed(std::string_view Name, TickDomain D,
                          int64_t BucketWidth, int64_t Tick, double X);

/// Sets gauge \p Name when the registry is enabled.
inline void setGauge(std::string_view Name, double X) {
  Registry &R = activeRegistry();
  if (R.enabled())
    R.gauge(Name).set(X);
}

/// Advances the simulated-cycle clock when the registry is enabled.
inline void advanceSimCycles(int64_t N) {
  Registry &R = activeRegistry();
  if (R.enabled())
    R.advanceCycles(N);
}

/// Turns the whole observability layer (tracer + registry) on or off, and
/// queries it. The driver's export flags call this.
void setObservabilityEnabled(bool On);
bool observabilityEnabled();

/// Clears every *global* observability store: the Tracer's spans, the
/// Registry's metrics and cycle clock, and the FlightRecorder's
/// per-thread rings. Used by tests, by the driver between independent
/// compilations, and by the bench harness between iterations so JSON
/// dumps are per-iteration rather than cumulative. Explicitly excluded:
/// session scopes (obs/Scope.h) — a Scope's registry belongs to its owner
/// and is reset via `registry().reset()`, never by this global sweep.
/// tests/obs/ResetTest.cpp asserts this coverage contract.
void resetAll();

} // namespace pf::obs

#endif // PIMFLOW_OBS_COUNTERS_H
