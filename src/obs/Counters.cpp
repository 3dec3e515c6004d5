//===- obs/Counters.cpp - The telemetry registry ----------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Counters.h"

#include "obs/FlightRecorder.h"
#include "obs/Trace.h"

using namespace pf::obs;

namespace {

template <typename T, typename... Args>
T &findOrCreate(std::map<std::string, std::unique_ptr<T>, std::less<>> &Metrics,
                std::string_view Name, Args... CtorArgs) {
  auto It = Metrics.find(Name);
  if (It == Metrics.end())
    It = Metrics.emplace(std::string(Name), std::make_unique<T>(CtorArgs...))
             .first;
  return *It->second;
}

} // namespace

Registry &Registry::instance() {
  static Registry R;
  return R;
}

Counter &Registry::counter(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  return findOrCreate(Counters, Name);
}

Gauge &Registry::gauge(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  return findOrCreate(Gauges, Name);
}

LogLinearHistogram &Registry::histogram(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  return findOrCreate(Histograms, Name);
}

SlidingWindow &Registry::window(std::string_view Name, TickDomain D,
                                int64_t BucketWidth) {
  std::lock_guard<std::mutex> Lock(Mu);
  return findOrCreate(Windows, Name, D, BucketWidth);
}

// Every snapshot walks a std::map, so it is already name-sorted.

std::vector<std::pair<std::string, int64_t>>
Registry::counterSnapshot() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<std::pair<std::string, int64_t>> Out;
  for (const auto &[Name, C] : Counters)
    if (C->value() != 0)
      Out.emplace_back(Name, C->value());
  return Out;
}

std::vector<std::pair<std::string, double>> Registry::gaugeSnapshot() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<std::pair<std::string, double>> Out;
  for (const auto &[Name, G] : Gauges)
    if (G->value() != 0.0)
      Out.emplace_back(Name, G->value());
  return Out;
}

std::vector<std::pair<std::string, QuantileStats>>
Registry::histogramSnapshot() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<std::pair<std::string, QuantileStats>> Out;
  for (const auto &[Name, H] : Histograms) {
    const QuantileStats Q = H->stats();
    if (Q.Count > 0)
      Out.emplace_back(Name, Q);
  }
  return Out;
}

std::vector<std::pair<std::string, WindowStats>>
Registry::windowSnapshot() const {
  const int64_t NowUs = static_cast<int64_t>(Tracer::instance().nowUs());
  const int64_t NowCycles = cycles();
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<std::pair<std::string, WindowStats>> Out;
  for (const auto &[Name, W] : Windows) {
    const WindowStats S = W->stats(
        W->domain() == TickDomain::SimCycles ? NowCycles : NowUs);
    if (S.Count > 0)
      Out.emplace_back(Name, S);
  }
  return Out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> Lock(Mu);
  for (auto &[Name, C] : Counters)
    C->reset();
  for (auto &[Name, G] : Gauges)
    G->reset();
  for (auto &[Name, H] : Histograms)
    H->reset();
  for (auto &[Name, W] : Windows)
    W->reset();
  CycleClock.store(0, std::memory_order_relaxed);
}

void pf::obs::recordMetricWindowed(std::string_view Name, TickDomain D,
                                   int64_t BucketWidth, int64_t Tick,
                                   double X) {
  Registry &R = activeRegistry();
  if (!R.enabled())
    return;
  R.histogram(Name).record(X);
  R.window(Name, D, BucketWidth).record(Tick, X);
}

void pf::obs::setObservabilityEnabled(bool On) {
  Tracer::instance().setEnabled(On);
  Registry::instance().setEnabled(On);
  // The flight recorder stays always-on regardless (bounded rings make it
  // free when idle); only its contents are lifecycle-managed, in
  // resetAll().
}

bool pf::obs::observabilityEnabled() {
  return Tracer::instance().enabled() || Registry::instance().enabled();
}

void pf::obs::resetAll() {
  Tracer::instance().clear();
  Registry::instance().reset();
  FlightRecorder::instance().clear();
}
