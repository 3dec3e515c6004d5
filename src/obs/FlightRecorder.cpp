//===- obs/FlightRecorder.cpp - Always-on event ring buffer -----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/FlightRecorder.h"

#include <algorithm>
#include <cstdio>

#include "obs/Json.h"
#include "support/TextFile.h"

using namespace pf::obs;

const char *pf::obs::flightEventKindName(FlightEventKind K) {
  switch (K) {
  case FlightEventKind::PhaseTransition:
    return "phase";
  case FlightEventKind::RetryIssued:
    return "retry";
  case FlightEventKind::BackoffWait:
    return "backoff";
  case FlightEventKind::WatchdogTrip:
    return "watchdog-trip";
  case FlightEventKind::ChannelDead:
    return "channel-dead";
  case FlightEventKind::ChannelRemap:
    return "channel-remap";
  case FlightEventKind::FloorFallback:
    return "floor-fallback";
  case FlightEventKind::NodeFallback:
    return "node-fallback";
  case FlightEventKind::CacheHit:
    return "cache-hit";
  case FlightEventKind::CacheMiss:
    return "cache-miss";
  case FlightEventKind::BreakerTrip:
    return "breaker-trip";
  case FlightEventKind::BreakerProbe:
    return "breaker-probe";
  case FlightEventKind::BreakerReadmit:
    return "breaker-readmit";
  case FlightEventKind::ExecStart:
    return "exec-start";
  case FlightEventKind::ExecDone:
    return "exec-done";
  case FlightEventKind::ExecError:
    return "exec-error";
  case FlightEventKind::RequestAdmit:
    return "request-admit";
  case FlightEventKind::RequestShed:
    return "request-shed";
  case FlightEventKind::RequestRetry:
    return "request-retry";
  case FlightEventKind::RequestDone:
    return "request-done";
  }
  return "unknown";
}

FlightRecorder &FlightRecorder::instance() {
  static FlightRecorder *R = new FlightRecorder();
  return *R;
}

FlightRecorder::Ring &FlightRecorder::localRing() {
  thread_local Ring *Local = nullptr;
  if (!Local) {
    std::lock_guard<std::mutex> Lock(Mu);
    Rings.push_back(std::make_unique<Ring>());
    Rings.back()->Tid = static_cast<uint32_t>(Rings.size() - 1);
    Local = Rings.back().get();
  }
  return *Local;
}

void FlightRecorder::record(FlightEventKind K, int64_t Cycle, int32_t A,
                            int32_t B, double Value, const char *Detail,
                            int32_t Req) {
  Ring &R = localRing();
  FlightEvent E;
  E.Seq = NextSeq.fetch_add(1, std::memory_order_relaxed);
  E.Cycle = Cycle;
  E.Value = Value;
  E.A = A;
  E.B = B;
  E.Req = Req;
  E.Kind = K;
  E.Tid = R.Tid;
  E.Detail = Detail;
  // The only cross-thread contention on this lock is a dump-time merge;
  // steady-state recording takes it uncontended.
  std::lock_guard<std::mutex> Lock(R.Mu);
  R.Events.push(E);
}

std::vector<FlightEvent> FlightRecorder::merged() const {
  std::vector<FlightEvent> Out;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (const auto &R : Rings) {
      std::lock_guard<std::mutex> RingLock(R->Mu);
      R->Events.forEach([&](const FlightEvent &E) { Out.push_back(E); });
    }
  }
  std::sort(Out.begin(), Out.end(),
            [](const FlightEvent &L, const FlightEvent &R) {
              return L.Seq < R.Seq;
            });
  return Out;
}

std::string FlightRecorder::renderText(const char *Reason) const {
  const std::vector<FlightEvent> Events = merged();
  uint32_t Threads = 0;
  for (const FlightEvent &E : Events)
    Threads = std::max(Threads, E.Tid + 1);

  std::string Out = "# pimflow flight recorder dump\n";
  if (Reason) {
    Out += "# reason: ";
    Out += Reason;
    Out += '\n';
  }
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "# events: %zu (last %zu per thread, %u thread%s)\n",
                Events.size(), RingCapacity, Threads,
                Threads == 1 ? "" : "s");
  Out += Buf;
  for (const FlightEvent &E : Events) {
    std::snprintf(Buf, sizeof(Buf),
                  "seq=%06llu tid=%u cycle=%lld kind=%s a=%d b=%d v=%g",
                  static_cast<unsigned long long>(E.Seq), E.Tid,
                  static_cast<long long>(E.Cycle), flightEventKindName(E.Kind),
                  E.A, E.B, E.Value);
    Out += Buf;
    if (E.Req >= 0) {
      std::snprintf(Buf, sizeof(Buf), " req=%d", E.Req);
      Out += Buf;
    }
    if (E.Detail) {
      Out += " note=";
      Out += E.Detail;
    }
    Out += '\n';
  }
  return Out;
}

bool FlightRecorder::dump(const std::string &Path, const char *Reason) const {
  return writeTextFile(Path, renderText(Reason));
}

void FlightRecorder::setAutoDumpPath(std::string Path) {
  std::lock_guard<std::mutex> Lock(Mu);
  AutoDumpPath = std::move(Path);
}

std::string FlightRecorder::autoDumpPath() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return AutoDumpPath;
}

void FlightRecorder::autoDump(const char *Reason) {
  const std::string Path = autoDumpPath();
  if (Path.empty())
    return;
  if (!dump(Path, Reason))
    std::fprintf(stderr, "warning: flight recorder: cannot write %s\n",
                 Path.c_str());
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  for (const auto &R : Rings) {
    std::lock_guard<std::mutex> RingLock(R->Mu);
    R->Events.clear();
  }
  NextSeq.store(0, std::memory_order_relaxed);
}
