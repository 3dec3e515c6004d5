//===- serve/ServeReport.cpp - Serve-mode perf report ---------------------===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/ServeReport.h"

#include "obs/PerfReport.h"
#include "support/Format.h"
#include "support/TextFile.h"

using namespace pf;
using namespace pf::serve;

std::string pf::serve::renderServeReport(const ServeResult &R) {
  obs::JsonWriter W;
  W.beginObject();
  W.field("schema_version", obs::PerfReportSchemaVersion);
  W.field("kind", "pimflow-serve-report");
  W.field("policy", R.PolicyName);
  W.key("models").beginArray();
  for (const std::string &Name : R.ModelNames)
    W.value(Name);
  W.endArray();

  W.key("config")
      .beginObject()
      .field("planned_channels", R.PlannedChannels)
      .field("channel_pool", R.PoolChannels)
      .field("floor", R.Floor)
      .field("max_inflight", R.MaxInflight)
      .field("max_queue", R.MaxQueue)
      .field("seed", static_cast<int64_t>(R.Seed))
      .field("default_deadline_us", R.DefaultDeadlineUs)
      .field("retry_budget", R.RetryBudget)
      .field("breaker_threshold", R.BreakerThreshold)
      .field("breaker_cooldown_us", R.BreakerCooldownUs)
      .field("faults", R.FaultSummary)
      .field("trace_sample", R.SamplePolicy)
      .endObject();

  W.key("outcomes")
      .beginObject()
      .field("requests", static_cast<int64_t>(R.Sessions.size()))
      .field("served", R.Served)
      .field("degraded", R.Degraded)
      .field("floor_fallbacks", R.FloorFallbacks)
      .field("shed", R.Shed)
      .endObject();

  W.key("shed_reasons")
      .beginObject()
      .field("queue_full", R.ShedQueueFull)
      .field("deadline_expired", R.ShedDeadline)
      .endObject();
  W.key("floor_reasons")
      .beginObject()
      .field("below_floor", R.FloorBelowFloor)
      .field("retry_budget", R.FloorRetryBudget)
      .endObject();
  W.key("deadlines")
      .beginObject()
      .field("met", R.DeadlineMet)
      .field("missed_run", R.DeadlineMissedRun)
      .field("expired_queued", R.DeadlineExpiredQueued)
      .endObject();
  W.key("resilience")
      .beginObject()
      .field("fault_interrupts", R.FaultInterrupts)
      .field("retries_used", R.RetriesUsed)
      .field("retry_budget_denied", R.RetryBudgetDenied)
      .field("breaker_trips", R.BreakerTrips)
      .field("breaker_probes", R.BreakerProbes)
      .field("breaker_readmits", R.BreakerReadmits)
      .field("channel_recoveries", R.ChannelRecoveries)
      .endObject();

  // Exact nearest-rank percentiles (integer virtual ns), as opposed to
  // the bounded-error quantiles of the serve.* HDR histograms below.
  W.key("request_latency_ns")
      .beginObject()
      .field("p50", R.LatencyP50Ns)
      .field("p99", R.LatencyP99Ns)
      .field("max", R.LatencyMaxNs)
      .endObject();
  W.key("queue_delay_ns")
      .beginObject()
      .field("p50", R.QueueDelayP50Ns)
      .field("p99", R.QueueDelayP99Ns)
      .endObject();
  W.field("total_energy_j", R.TotalEnergyJ);

  // The --trace-sample selection (docs/INTERNALS.md section 15): these
  // ids carry segments below and lanes in the request trace.
  W.key("sampled_requests").beginArray();
  for (int Id : R.SampledRequests)
    W.value(Id);
  W.endArray();

  W.key("requests").beginArray();
  for (const auto &SP : R.Sessions) {
    const Session &S = *SP;
    W.beginObject()
        .field("id", S.Req.Id)
        .field("trace_id", formatTraceId(S.TraceId))
        .field("model",
               R.ModelNames[static_cast<size_t>(S.Req.ModelIdx)])
        .field("batch", S.Req.Batch)
        .field("outcome", outcomeName(S.Outcome))
        .field("reason", outcomeReasonName(S.Reason))
        .field("deadline", deadlineStateName(S.deadlineState()))
        .field("retries", S.Retries)
        .field("interrupts", S.Interrupts)
        .field("sampled", S.Sampled)
        .field("channels_granted", S.channelsGranted())
        .field("channels_wanted", S.ChannelsWanted)
        .field("arrival_ns", S.Req.ArrivalNs)
        .field("start_ns", S.StartNs)
        .field("end_ns", S.EndNs);
    if (S.Sampled) {
      // Virtual-time segment list, one queue segment plus one per
      // attempt — the substrate `pimflow report --request=` renders.
      W.key("segments").beginArray();
      W.beginObject()
          .field("kind", "queue")
          .field("start_ns", S.Req.ArrivalNs)
          .field("end_ns", S.ran() ? S.StartNs : S.EndNs)
          .endObject();
      for (size_t A = 0; A < S.Attempts.size(); ++A) {
        const ExecAttempt &At = S.Attempts[A];
        W.beginObject()
            .field("kind", A == 0 ? "exec" : "retry")
            .field("start_ns", At.StartNs)
            .field("end_ns", At.EndNs)
            .field("granted", static_cast<int>(At.Channels.size()));
        W.key("channels").beginArray();
        for (int Ch : At.Channels)
          W.value(Ch);
        W.endArray();
        W.field("outcome", outcomeName(At.Outcome))
            .field("reason", outcomeReasonName(At.Reason))
            .field("interrupted", At.Interrupted);
        if (At.OutageId >= 0)
          W.field("outage", At.OutageId);
        W.field("unit_gpu_busy_ns", At.UnitGpuBusyNs)
            .field("unit_pim_busy_ns", At.UnitPimBusyNs)
            .endObject();
      }
      W.endArray();
    }
    W.endObject();
  }
  W.endArray();

  // The shared counters/metrics sections from the active scope (where
  // Server::run recorded the serve.* families).
  obs::emitObsSections(W);

  W.endObject();
  return W.take();
}

bool pf::serve::writeServeReport(const ServeResult &R,
                                 const std::string &Path) {
  return writeTextFile(Path, renderServeReport(R));
}

//===----------------------------------------------------------------------===//
// pimflow report --request=<id>
//===----------------------------------------------------------------------===//

namespace {

std::string stringOr(const obs::JsonValue &V, const std::string &Key,
                     const std::string &Default) {
  const obs::JsonValue *M = V.find(Key);
  return M && M->isString() ? M->Str : Default;
}

bool boolOr(const obs::JsonValue &V, const std::string &Key, bool Default) {
  const obs::JsonValue *M = V.find(Key);
  return M && M->K == obs::JsonValue::Kind::Bool ? M->Boolean : Default;
}

int64_t intOr(const obs::JsonValue &V, const std::string &Key,
              int64_t Default) {
  return static_cast<int64_t>(
      V.numberOr(Key, static_cast<double>(Default)));
}

/// "0+1+2" from a segment's channels array; "gpu-floor" when empty.
std::string segmentChannels(const obs::JsonValue &Seg) {
  const obs::JsonValue *Ch = Seg.find("channels");
  if (!Ch || !Ch->isArray() || Ch->Array.empty())
    return "gpu-floor";
  std::string Out;
  for (size_t I = 0; I < Ch->Array.size(); ++I) {
    if (I)
      Out += '+';
    Out += formatStr("%d", static_cast<int>(Ch->Array[I].Number));
  }
  return Out;
}

} // namespace

std::string pf::serve::renderServeRequestText(const obs::JsonValue &Report,
                                              int RequestId,
                                              std::string *Error) {
  auto Fail = [Error](const std::string &Msg) {
    if (Error)
      *Error = Msg;
    return std::string();
  };
  if (stringOr(Report, "kind", "") != "pimflow-serve-report")
    return Fail("not a pimflow-serve-report document (run `pimflow serve "
                "--perf-report=<path>` to produce one)");
  const obs::JsonValue *Reqs = Report.find("requests");
  if (!Reqs || !Reqs->isArray())
    return Fail("report has no requests array");
  const obs::JsonValue *Row = nullptr;
  for (const obs::JsonValue &V : Reqs->Array)
    if (V.isObject() && intOr(V, "id", -1) == RequestId) {
      Row = &V;
      break;
    }
  if (!Row)
    return Fail(formatStr("request %d is not in the report (%d requests)",
                          RequestId, static_cast<int>(Reqs->Array.size())));
  const obs::JsonValue *Segs = Row->find("segments");
  if (!boolOr(*Row, "sampled", false) || !Segs || !Segs->isArray()) {
    std::string Policy = "?";
    if (const obs::JsonValue *Config = Report.find("config"))
      Policy = stringOr(*Config, "trace_sample", Policy);
    return Fail(formatStr(
        "request %d was not sampled under --trace-sample=%s; rerun serve "
        "with --trace-sample=all (or a tail policy covering it)",
        RequestId, Policy.c_str()));
  }

  const int64_t ArrivalNs = intOr(*Row, "arrival_ns", 0);
  const int64_t StartNs = intOr(*Row, "start_ns", 0);
  const int64_t EndNs = intOr(*Row, "end_ns", 0);
  const bool Ran = stringOr(*Row, "outcome", "") != "shed";

  std::string Out;
  Out += formatStr("serve request %d  trace %s\n", RequestId,
                   stringOr(*Row, "trace_id", "?").c_str());
  Out += formatStr("  model    %s  batch %d\n",
                   stringOr(*Row, "model", "?").c_str(),
                   static_cast<int>(intOr(*Row, "batch", 0)));
  Out += formatStr("  outcome  %s (%s)  deadline %s  retries %d  "
                   "interrupts %d\n",
                   stringOr(*Row, "outcome", "?").c_str(),
                   stringOr(*Row, "reason", "?").c_str(),
                   stringOr(*Row, "deadline", "?").c_str(),
                   static_cast<int>(intOr(*Row, "retries", 0)),
                   static_cast<int>(intOr(*Row, "interrupts", 0)));

  for (const obs::JsonValue &Seg : Segs->Array) {
    if (!Seg.isObject())
      continue;
    const std::string Kind = stringOr(Seg, "kind", "?");
    const int64_t S = intOr(Seg, "start_ns", 0);
    const int64_t E = intOr(Seg, "end_ns", 0);
    if (Kind == "queue") {
      Out += formatStr("  %-10s [%12lld .. %12lld]  %10lld ns\n",
                       "queue-wait", static_cast<long long>(S),
                       static_cast<long long>(E),
                       static_cast<long long>(E - S));
      continue;
    }
    std::string Line = formatStr(
        "  %-10s [%12lld .. %12lld]  %10lld ns  grant %s", Kind.c_str(),
        static_cast<long long>(S), static_cast<long long>(E),
        static_cast<long long>(E - S), segmentChannels(Seg).c_str());
    if (boolOr(Seg, "interrupted", false))
      Line += formatStr("  interrupted by outage %d",
                        static_cast<int>(intOr(Seg, "outage", -1)));
    else
      Line += formatStr("  exec-phase gpu %.0f ns / pim %.0f ns",
                        Seg.numberOr("unit_gpu_busy_ns", 0.0),
                        Seg.numberOr("unit_pim_busy_ns", 0.0));
    Out += Line + "\n";
  }

  const int64_t QueueNs = (Ran ? StartNs : EndNs) - ArrivalNs;
  if (Ran)
    Out += formatStr("  latency  %lld ns = queue-wait %lld + service %lld\n",
                     static_cast<long long>(EndNs - ArrivalNs),
                     static_cast<long long>(QueueNs),
                     static_cast<long long>(EndNs - StartNs));
  else
    Out += formatStr("  shed after %lld ns in queue (%s)\n",
                     static_cast<long long>(QueueNs),
                     stringOr(*Row, "reason", "?").c_str());
  return Out;
}
