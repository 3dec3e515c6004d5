//===- obs/Trace.h - Low-overhead compile-phase span tracer -----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe span tracer for the compiler's own phases. Scopes are RAII
/// (`PF_TRACE_SCOPE("search.dp")`) and nest naturally; each completed scope
/// records a TraceEvent with a wall-clock timestamp relative to the tracer
/// epoch and the recording thread. The tracer is disabled by default: a
/// disabled PF_TRACE_SCOPE costs one relaxed atomic load, so instrumentation
/// can stay in hot compiler paths permanently (the `pimflow` driver enables
/// it when `--trace-out` is passed).
///
/// Events are consumed by `obs/ChromeTrace.h`, which renders them together
/// with the simulated execution Timeline as Chrome trace-event JSON.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_OBS_TRACE_H
#define PIMFLOW_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pf::obs {

/// One completed span. Timestamps are microseconds of wall-clock time since
/// the tracer's epoch (reset by clear()).
struct TraceEvent {
  std::string Name;
  /// Chrome trace category; groups phases in the viewer.
  std::string Category = "compile";
  double StartUs = 0.0;
  double DurUs = 0.0;
  /// Small dense id of the recording thread (0 = first thread seen).
  uint32_t Tid = 0;
};

/// The process-wide span sink.
class Tracer {
public:
  static Tracer &instance();

  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }
  void setEnabled(bool On) {
    Enabled.store(On, std::memory_order_relaxed);
  }

  /// Drops all recorded events and re-bases the epoch at now.
  void clear();

  /// Microseconds of wall-clock time since the epoch.
  double nowUs() const;

  /// Records one completed span on the calling thread.
  void record(std::string Name, std::string Category, double StartUs,
              double DurUs);

  /// Copies out the events recorded so far.
  std::vector<TraceEvent> snapshot() const;

  /// Number of events recorded so far.
  size_t numEvents() const;

private:
  Tracer();
  uint32_t threadId();

  std::atomic<bool> Enabled{false};
  std::atomic<int64_t> EpochNs{0};
  mutable std::mutex Mu;
  std::vector<TraceEvent> Events;
};

/// True when the obs scope installed on this thread (obs/Scope.h) has a
/// disabled registry, i.e. mutes what runs under it. Defined in Scope.cpp.
bool scopeMuted();

/// RAII span: measures construction-to-destruction and records it on the
/// tracer when tracing is enabled and no muted scope is installed. Cheap
/// no-op otherwise: a disabled tracer costs one relaxed atomic load.
class TraceScope {
public:
  explicit TraceScope(const char *Name, const char *Category = "compile") {
    Tracer &T = Tracer::instance();
    if (!T.enabled() || scopeMuted())
      return;
    Active = true;
    this->Name = Name;
    this->Category = Category;
    StartUs = T.nowUs();
  }
  /// Dynamic-name variant for per-item spans.
  explicit TraceScope(std::string Name, const char *Category = "compile") {
    Tracer &T = Tracer::instance();
    if (!T.enabled() || scopeMuted())
      return;
    Active = true;
    DynName = std::move(Name);
    this->Category = Category;
    StartUs = T.nowUs();
  }
  ~TraceScope() {
    if (!Active)
      return;
    Tracer &T = Tracer::instance();
    const double End = T.nowUs();
    T.record(Name ? std::string(Name) : std::move(DynName), Category,
             StartUs, End - StartUs);
  }
  TraceScope(const TraceScope &) = delete;
  TraceScope &operator=(const TraceScope &) = delete;

private:
  bool Active = false;
  const char *Name = nullptr;
  std::string DynName;
  const char *Category = "compile";
  double StartUs = 0.0;
};

} // namespace pf::obs

#define PF_TRACE_CONCAT_IMPL(A, B) A##B
#define PF_TRACE_CONCAT(A, B) PF_TRACE_CONCAT_IMPL(A, B)

/// Opens an RAII span covering the rest of the enclosing scope.
#define PF_TRACE_SCOPE(NAME)                                                 \
  ::pf::obs::TraceScope PF_TRACE_CONCAT(PfTraceScope_, __LINE__)(NAME)

/// Like PF_TRACE_SCOPE with an explicit Chrome trace category.
#define PF_TRACE_SCOPE_CAT(NAME, CAT)                                        \
  ::pf::obs::TraceScope PF_TRACE_CONCAT(PfTraceScope_, __LINE__)(NAME, CAT)

#endif // PIMFLOW_OBS_TRACE_H
