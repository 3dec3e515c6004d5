//===- serve/RequestTrace.cpp - Per-request tracing and sampling ----------===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Trace-id derivation, the --trace-sample policy, the deterministic tail
// sampler, and Server::renderTrace — the serve-side Chrome trace exporter
// (docs/INTERNALS.md section 15). Everything here consumes only
// virtual-time session records, so the rendered document is byte-identical
// from run to run.
//
//===----------------------------------------------------------------------===//

#include "serve/RequestTrace.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "obs/ChromeTrace.h"
#include "obs/Json.h"
#include "serve/Server.h"
#include "support/Format.h"
#include "support/StringUtil.h"
#include "support/TextFile.h"

using namespace pf;
using namespace pf::serve;

uint64_t pf::serve::requestTraceId(uint64_t Seed, int RequestId) {
  // FNV-1a 64 over the little-endian bytes of (seed, id) — the same hash
  // family the plan cache keys with, picked for stability rather than
  // strength: the id only has to be reproducible and well-spread.
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (I * 8)) & 0xFFu;
      H *= 1099511628211ull;
    }
  };
  Mix(Seed);
  Mix(static_cast<uint64_t>(static_cast<int64_t>(RequestId)));
  return H;
}

std::string pf::serve::formatTraceId(uint64_t TraceId) {
  return formatStr("%016llx", static_cast<unsigned long long>(TraceId));
}

bool TraceSamplePolicy::parse(const std::string &Spec, TraceSamplePolicy &Out,
                              DiagnosticEngine &DE) {
  if (Spec == "all") {
    Out.K = Kind::All;
    return true;
  }
  if (Spec == "tail") {
    Out.K = Kind::Tail;
    Out.SlowestK = 8;
    return true;
  }
  if (startsWith(Spec, "tail:")) {
    auto N = parseInt(Spec.substr(5));
    if (N && *N >= 0 && *N <= 1000000) {
      Out.K = Kind::Tail;
      Out.SlowestK = static_cast<int>(*N);
      return true;
    }
  }
  DE.error(DiagCode::ServeBadSpec, Spec,
           "trace-sample policy must be 'all', 'tail', or 'tail:<K>' with "
           "K in [0, 1000000]");
  return false;
}

std::string TraceSamplePolicy::describe() const {
  return K == Kind::All ? "all" : formatStr("tail:%d", SlowestK);
}

std::vector<int> pf::serve::sampleRequests(const ServeResult &R,
                                           const TraceSamplePolicy &P) {
  const int N = static_cast<int>(R.Sessions.size());
  std::vector<int> Out;
  if (P.K == TraceSamplePolicy::Kind::All) {
    Out.resize(N);
    std::iota(Out.begin(), Out.end(), 0);
    return Out;
  }

  std::vector<char> Mark(static_cast<size_t>(N), 0);
  // (latency, id) of the completed requests, for the slowest-K cutoff.
  std::vector<std::pair<int64_t, int>> Completed;
  Completed.reserve(static_cast<size_t>(N));
  for (int Id = 0; Id < N; ++Id) {
    const Session &S = *R.Sessions[Id];
    if (!S.ran()) {
      Mark[Id] = 1; // shed (queue-full or queue-expired)
      continue;
    }
    if (S.deadlineState() == DeadlineState::MissedRun)
      Mark[Id] = 1;
    if (S.Interrupts > 0 || S.Retries > 0 ||
        S.Reason == OutcomeReason::FaultRetry ||
        S.Reason == OutcomeReason::RetryBudget)
      Mark[Id] = 1; // faulted
    Completed.emplace_back(S.latencyNs(), Id);
  }
  std::sort(Completed.begin(), Completed.end(),
            [](const std::pair<int64_t, int> &A,
               const std::pair<int64_t, int> &B) {
              if (A.first != B.first)
                return A.first > B.first; // slowest first
              return A.second < B.second; // ties toward the lower id
            });
  for (size_t I = 0;
       I < Completed.size() && I < static_cast<size_t>(P.SlowestK); ++I)
    Mark[Completed[I].second] = 1;

  for (int Id = 0; Id < N; ++Id)
    if (Mark[Id])
      Out.push_back(Id);
  return Out;
}

//===----------------------------------------------------------------------===//
// Chrome trace rendering
//===----------------------------------------------------------------------===//

namespace {

using obs::emitProcessName;
using obs::emitThreadName;
using obs::JsonWriter;

/// Serve-trace process lanes; compile/execution exports own pids 1/2
/// (obs/ChromeTrace.cpp), so the serve document is mergeable with them.
constexpr int RequestPid = 3;
constexpr int ChannelPid = 4;

/// Node-level exec-phase span budget per attempt: past it, only replay 0
/// is emitted and the span notes how many replays were elided.
constexpr int MaxPhaseSpans = 512;

double usOf(int64_t Ns) { return static_cast<double>(Ns) / 1000.0; }
double usOf(double Ns) { return Ns / 1000.0; }

/// Flow-event id linking a request-lane attempt to its channel lane.
int64_t flowId(int ReqId, size_t Attempt) {
  return (static_cast<int64_t>(ReqId) << 8) |
         static_cast<int64_t>(Attempt & 0xFFu);
}

/// Opens a trace event object through its common fields; the caller adds
/// ts / dur / args and closes it.
JsonWriter &openEvent(JsonWriter &W, const char *Ph, const std::string &Name,
                      const char *Cat, int Pid, int Tid) {
  return W.beginObject()
      .field("name", Name)
      .field("cat", Cat)
      .field("ph", Ph)
      .field("pid", Pid)
      .field("tid", Tid);
}

void emitInstant(JsonWriter &W, const std::string &Name, const char *Cat,
                 int Pid, int Tid, int64_t Ns,
                 const std::vector<std::pair<std::string, std::string>> &Args) {
  openEvent(W, "i", Name, Cat, Pid, Tid).field("ts", usOf(Ns)).field("s", "t");
  W.key("args").beginObject();
  for (const auto &KV : Args)
    W.field(KV.first, KV.second);
  W.endObject().endObject();
}

/// "0+1+2" for a grant, "gpu-floor" for an empty one.
std::string channelsLabel(const std::vector<int> &Channels) {
  if (Channels.empty())
    return "gpu-floor";
  std::string Out;
  for (size_t I = 0; I < Channels.size(); ++I) {
    if (I)
      Out += '+';
    Out += formatStr("%d", Channels[I]);
  }
  return Out;
}

} // namespace

std::string Server::renderTrace(const ServeResult &R) const {
  JsonWriter W;
  W.beginObject().key("traceEvents").beginArray();

  emitProcessName(W, RequestPid, "pimflow serve: requests (virtual time)");
  emitProcessName(W, ChannelPid, "pimflow serve: channels (virtual time)");
  for (int Ch = 0; Ch < Pool; ++Ch)
    emitThreadName(W, ChannelPid, Ch, formatStr("PIM ch %d", Ch));
  emitThreadName(W, ChannelPid, Pool, "GPU floor");

  // --- pid 3: one lane per sampled request -------------------------------
  for (int Id : R.SampledRequests) {
    const Session &S = *R.Sessions[static_cast<size_t>(Id)];
    emitThreadName(W, RequestPid, Id,
                   formatStr("req %d [%s]", Id,
                             formatTraceId(S.TraceId).c_str()));

    // Root span: arrival to completion (or to the shed instant).
    openEvent(W, "B", "request", "serve.request", RequestPid, Id)
        .field("ts", usOf(S.Req.ArrivalNs))
        .key("args")
        .beginObject()
        .field("request", Id)
        .field("trace_id", formatTraceId(S.TraceId))
        .field("model", R.ModelNames[static_cast<size_t>(S.Req.ModelIdx)])
        .field("batch", S.Req.Batch)
        .field("outcome", outcomeName(S.Outcome))
        .field("reason", outcomeReasonName(S.Reason))
        .field("deadline", deadlineStateName(S.deadlineState()))
        .field("retries", S.Retries)
        .field("interrupts", S.Interrupts)
        .endObject()
        .endObject();

    // Queue span: arrival to admission for a ran request, arrival to the
    // shed instant otherwise. Zero-length when admitted on arrival.
    const int64_t QueueEndNs = S.ran() ? S.StartNs : S.EndNs;
    openEvent(W, "B", "queue", "serve.queue", RequestPid, Id)
        .field("ts", usOf(S.Req.ArrivalNs))
        .endObject();
    openEvent(W, "E", "queue", "serve.queue", RequestPid, Id)
        .field("ts", usOf(QueueEndNs))
        .endObject();

    if (!S.ran())
      emitInstant(W, "shed", "serve.shed", RequestPid, Id, S.EndNs,
                  {{"reason", outcomeReasonName(S.Reason)}});

    for (size_t A = 0; A < S.Attempts.size(); ++A) {
      const ExecAttempt &At = S.Attempts[A];
      const bool Final = A + 1 == S.Attempts.size();
      const std::string Name = A == 0 ? "exec" : "retry";

      // Phase spans replay the attempt's priced unit timeline; only the
      // final, uninterrupted attempt earns them (earlier ones were cut).
      const Timeline *TL = nullptr;
      int Replays = 0;
      int Elided = 0;
      if (Final && !At.Interrupted) {
        TL = unitTimeline(S.Req.ModelIdx,
                          static_cast<int>(At.Channels.size()));
        if (TL && !TL->Nodes.empty()) {
          Replays = S.Req.Batch;
          if (static_cast<size_t>(Replays) * TL->Nodes.size() >
              static_cast<size_t>(MaxPhaseSpans)) {
            Elided = Replays - 1;
            Replays = 1;
          }
        }
      }

      openEvent(W, "B", Name, "serve.exec", RequestPid, Id)
          .field("ts", usOf(At.StartNs))
          .key("args")
          .beginObject()
          .field("attempt", static_cast<int>(A))
          .field("channels", channelsLabel(At.Channels))
          .field("granted", static_cast<int>(At.Channels.size()))
          .field("outcome", outcomeName(At.Outcome))
          .field("reason", outcomeReasonName(At.Reason))
          .field("interrupted", At.Interrupted);
      if (At.OutageId >= 0)
        W.field("outage", At.OutageId);
      if (Elided > 0)
        W.field("replays_elided", Elided);
      W.field("unit_gpu_busy_ns", At.UnitGpuBusyNs)
          .field("unit_pim_busy_ns", At.UnitPimBusyNs)
          .endObject()
          .endObject();

      emitInstant(W, "grant", "serve.grant", RequestPid, Id, At.StartNs,
                  {{"channels", channelsLabel(At.Channels)}});

      // Flow start: picked up by the channel-lane half below.
      openEvent(W, "s", "req-exec", "serve.flow", RequestPid, Id)
          .field("ts", usOf(At.StartNs))
          .field("id", flowId(Id, A))
          .endObject();

      if (TL) {
        const PreparedModel &PM = Models[static_cast<size_t>(S.Req.ModelIdx)];
        const Graph &G = At.Channels.empty() ? PM.FloorDemoted
                                             : PM.Materialized;
        for (int Rep = 0; Rep < Replays; ++Rep) {
          const double BaseNs =
              static_cast<double>(At.StartNs) + Rep * S.UnitNs;
          for (const NodeSchedule &NS : TL->Nodes) {
            openEvent(W, "X", G.node(NS.Id).Name, "serve.phase", RequestPid,
                      Id)
                .field("ts", usOf(BaseNs + NS.StartNs))
                .field("dur", usOf(NS.durationNs()))
                .key("args")
                .beginObject()
                .field("device", deviceName(NS.Dev))
                .field("replay", Rep)
                .endObject()
                .endObject();
          }
        }
      }

      if (At.Interrupted)
        emitInstant(W, "interrupt", "serve.fault", RequestPid, Id, At.EndNs,
                    {{"outage", formatStr("%d", At.OutageId)}});

      openEvent(W, "E", Name, "serve.exec", RequestPid, Id)
          .field("ts", usOf(At.EndNs))
          .endObject();
    }

    openEvent(W, "E", "request", "serve.request", RequestPid, Id)
        .field("ts", usOf(std::max(S.EndNs, S.Req.ArrivalNs)))
        .endObject();
  }

  // --- pid 4: channel occupancy, fault windows, breaker instants ---------
  for (const ChannelOutage &O : R.Outages) {
    openEvent(W, "X", formatStr("outage %d", O.Id), "serve.fault",
              ChannelPid, O.Channel)
        .field("ts", usOf(O.StartNs))
        .field("dur", usOf(O.EndNs - O.StartNs))
        .key("args")
        .beginObject()
        .field("outage", O.Id)
        .field("channel", O.Channel)
        .endObject()
        .endObject();
  }

  for (int Id : R.SampledRequests) {
    const Session &S = *R.Sessions[static_cast<size_t>(Id)];
    for (size_t A = 0; A < S.Attempts.size(); ++A) {
      const ExecAttempt &At = S.Attempts[A];
      const std::string Name =
          formatStr("req %d%s", Id, A == 0 ? "" : " retry");
      // The floor lane carries channel-less attempts.
      std::vector<int> Lanes = At.Channels;
      if (Lanes.empty())
        Lanes.push_back(Pool);
      for (int Lane : Lanes) {
        openEvent(W, "X", Name, "serve.lane", ChannelPid, Lane)
            .field("ts", usOf(At.StartNs))
            .field("dur", usOf(At.durationNs()))
            .key("args")
            .beginObject()
            .field("request", Id)
            .field("attempt", static_cast<int>(A))
            .field("trace_id", formatTraceId(S.TraceId))
            .endObject()
            .endObject();
      }
      // Flow finish on the attempt's first lane, bound to the enclosing
      // occupancy slice (bp:"e").
      openEvent(W, "f", "req-exec", "serve.flow", ChannelPid, Lanes.front())
          .field("ts", usOf(At.StartNs))
          .field("id", flowId(Id, A))
          .field("bp", "e")
          .endObject();
    }
  }

  for (const BreakerEvent &E : R.HealthEvents) {
    std::vector<std::pair<std::string, std::string>> Args = {
        {"channel", formatStr("%d", E.Channel)},
        {"ok", E.Ok ? "true" : "false"}};
    if (E.ReqId >= 0)
      Args.emplace_back("request", formatStr("%d", E.ReqId));
    emitInstant(W, breakerEventKindName(E.K), "serve.breaker", ChannelPid,
                E.Channel, E.TimeNs, Args);
  }

  W.endArray()
      .field("displayTimeUnit", "ns")
      .field("serveTraceSample", R.SamplePolicy)
      .endObject();
  return W.take();
}

bool Server::writeTrace(const ServeResult &R,
                        const std::string &Path) const {
  return writeTextFile(Path, renderTrace(R));
}
