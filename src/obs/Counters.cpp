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

template <typename T>
T &findOrCreate(std::map<std::string, std::unique_ptr<T>, std::less<>> &Metrics,
                std::string_view Name) {
  auto It = Metrics.find(Name);
  if (It == Metrics.end())
    It = Metrics.emplace(std::string(Name), std::make_unique<T>()).first;
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

LogLinearHistogram &Registry::histogram(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  return findOrCreate(Histograms, Name);
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

void Registry::reset() {
  std::lock_guard<std::mutex> Lock(Mu);
  for (auto &[Name, C] : Counters)
    C->reset();
  for (auto &[Name, H] : Histograms)
    H->reset();
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
