//===- obs/FlightRecorder.h - Always-on event ring buffer -------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A crash-safe flight recorder (docs/INTERNALS.md §11): every thread
/// writes structured events — phase transitions, retry/backoff decisions,
/// channel remaps, watchdog trips, cache hits/misses — into its own
/// bounded ring (support/Ring.h), so recording never contends across
/// threads and the cost per event is one relaxed sequence fetch_add plus
/// an uncontended per-ring lock. The recorder is on by default: the rings
/// are fixed-size and overwrite their oldest entries, so an idle recorder
/// costs nothing and a busy one holds exactly the last
/// `RingCapacity` events per thread.
///
/// Dumps merge all rings and order events by the global sequence number (a
/// total order consistent with every thread's program order; each event
/// also carries its simulated-cycle or nanosecond timestamp). A dump is
/// triggered automatically — via `autoDump` — whenever the execution
/// engine's `tryExecute` fails or a fault goes unrecovered, and at exit
/// when the driver's `--flight-dump=<path>` flag configured a destination;
/// without a configured path `autoDump` is a no-op, keeping induced-fault
/// test suites quiet.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_OBS_FLIGHTRECORDER_H
#define PIMFLOW_OBS_FLIGHTRECORDER_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/Ring.h"

namespace pf::obs {

enum class FlightEventKind : uint8_t {
  PhaseTransition, ///< simulator phase boundary; A = channel, B = phase idx
  RetryIssued,     ///< transient retry; A = channel, B = attempt, V = cost
  BackoffWait,     ///< backoff pause; A = channel, B = attempt, V = cycles
  WatchdogTrip,    ///< watchdog fired; A = channel, V = budget cycles
  ChannelDead,     ///< channel declared dead; A = channel
  ChannelRemap,    ///< work remapped; A = from-channel, B = to-channel
  FloorFallback,   ///< whole plan demoted to the GPU floor
  NodeFallback,    ///< one node demoted to GPU; A = node id
  CacheHit,        ///< profiler memo hit
  CacheMiss,       ///< profiler memo miss; V = measure ns
  ExecStart,       ///< tryExecute entry; A = node count, B = channel count
  ExecDone,        ///< tryExecute success; V = makespan ns
  ExecError,       ///< tryExecute failure; Detail names the error
  BreakerTrip,     ///< channel breaker opened; A = channel, B = failures
  BreakerProbe,    ///< cooldown probe; A = channel, B = 1 healthy / 0 not
  BreakerReadmit,  ///< breaker closed, channel re-admitted; A = channel
  RequestAdmit,    ///< serve request started; A = channels granted, B = want
  RequestShed,     ///< serve request shed; A = reason ordinal
  RequestRetry,    ///< serve mid-run re-grant; A = channels, B = retry count
  RequestDone,     ///< serve request completed; V = latency ns
};

const char *flightEventKindName(FlightEventKind K);

/// One recorded event. POD; `Detail` must point at a string literal (the
/// ring stores the pointer, not a copy).
struct FlightEvent {
  uint64_t Seq = 0;  ///< global issue order across all threads
  int64_t Cycle = 0; ///< kind-specific timestamp (sim cycles or ns)
  double Value = 0.0;
  int32_t A = -1;
  int32_t B = -1;
  /// Serve request the event belongs to (-1 outside serve mode). Breaker
  /// trips carry the interrupted grant holder; probes/readmits carry the
  /// request whose failure tripped the channel.
  int32_t Req = -1;
  FlightEventKind Kind = FlightEventKind::ExecStart;
  uint32_t Tid = 0; ///< recorder-assigned thread ordinal
  const char *Detail = nullptr;
};

class FlightRecorder {
public:
  /// Events retained per thread. 256 × ~48 B ≈ 12 KiB per thread.
  static constexpr size_t RingCapacity = 256;

  /// The process-wide recorder (intentionally leaked: per-thread ring
  /// pointers must stay valid for any thread that outlives main's
  /// statics).
  static FlightRecorder &instance();

  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }
  void setEnabled(bool On) {
    Enabled.store(On, std::memory_order_relaxed);
  }

  void record(FlightEventKind K, int64_t Cycle, int32_t A = -1,
              int32_t B = -1, double Value = 0.0,
              const char *Detail = nullptr, int32_t Req = -1);

  /// All retained events from every thread's ring, sorted by Seq.
  std::vector<FlightEvent> merged() const;
  /// Human-readable dump of merged(), one event per line, with a header
  /// naming \p Reason.
  std::string renderText(const char *Reason = nullptr) const;
  /// Writes renderText(Reason) to \p Path; returns false on I/O error.
  bool dump(const std::string &Path, const char *Reason = nullptr) const;

  /// Destination for automatic dumps (empty = disabled, the default).
  /// The driver's --flight-dump flag sets this.
  void setAutoDumpPath(std::string Path);
  std::string autoDumpPath() const;
  /// Dumps to the auto-dump path if one is configured; no-op otherwise.
  /// Called from tryExecute error paths and unrecovered-fault handling.
  void autoDump(const char *Reason);

  /// Empties every ring (rings themselves survive; per-thread references
  /// stay valid). Also restarts the sequence counter.
  void clear();

private:
  struct Ring {
    mutable std::mutex Mu;
    uint32_t Tid = 0;
    BoundedRing<FlightEvent, RingCapacity> Events;
  };

  FlightRecorder() = default;
  Ring &localRing();

  std::atomic<bool> Enabled{true};
  std::atomic<uint64_t> NextSeq{0};
  mutable std::mutex Mu; // guards Rings registration and AutoDumpPath
  std::vector<std::unique_ptr<Ring>> Rings;
  std::string AutoDumpPath;
};

/// Records an event when the recorder is enabled (one relaxed load when
/// disabled, so call sites can live in hot paths).
inline void flightEvent(FlightEventKind K, int64_t Cycle, int32_t A = -1,
                        int32_t B = -1, double Value = 0.0,
                        const char *Detail = nullptr, int32_t Req = -1) {
  FlightRecorder &R = FlightRecorder::instance();
  if (R.enabled())
    R.record(K, Cycle, A, B, Value, Detail, Req);
}

} // namespace pf::obs

#endif // PIMFLOW_OBS_FLIGHTRECORDER_H
