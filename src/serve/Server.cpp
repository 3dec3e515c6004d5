//===- serve/Server.cpp - Closed-loop multi-tenant serving ----------------===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <map>
#include <queue>

#include "obs/FlightRecorder.h"
#include "obs/Json.h"
#include "support/Format.h"
#include "support/Log.h"
#include "support/ThreadPool.h"

using namespace pf;
using namespace pf::serve;

const char *pf::serve::outcomeName(RequestOutcome O) {
  switch (O) {
  case RequestOutcome::Served:
    return "served";
  case RequestOutcome::Degraded:
    return "degraded";
  case RequestOutcome::FloorFallback:
    return "floor";
  case RequestOutcome::Shed:
    return "shed";
  }
  pf_unreachable("unknown request outcome");
}

const char *pf::serve::outcomeReasonName(OutcomeReason R) {
  switch (R) {
  case OutcomeReason::None:
    return "none";
  case OutcomeReason::Contention:
    return "contention";
  case OutcomeReason::BelowFloor:
    return "below-floor";
  case OutcomeReason::FaultRetry:
    return "fault-retry";
  case OutcomeReason::RetryBudget:
    return "retry-budget";
  case OutcomeReason::QueueFull:
    return "queue-full";
  case OutcomeReason::DeadlineExpired:
    return "deadline-expired";
  }
  pf_unreachable("unknown outcome reason");
}

const char *pf::serve::deadlineStateName(DeadlineState D) {
  switch (D) {
  case DeadlineState::None:
    return "none";
  case DeadlineState::Met:
    return "met";
  case DeadlineState::MissedRun:
    return "missed";
  case DeadlineState::ExpiredQueued:
    return "expired";
  }
  pf_unreachable("unknown deadline state");
}

Server::Server(std::vector<std::pair<std::string, Graph>> InModels,
               ServerOptions O)
    : Options(O),
      Planned(O.Policy == OffloadPolicy::GpuOnly ? 0 : O.Flow.PimChannels),
      Pool(Planned == 0        ? 0
           : O.PoolChannels > 0 ? O.PoolChannels
                                : Planned),
      Flow(O.Policy, O.Flow) {
  PF_ASSERT(!InModels.empty(), "serve needs at least one model");
  for (auto &[Name, G] : InModels) {
    PreparedModel PM;
    PM.Name = Name;
    PM.Model = std::move(G);
    PM.Materialized = Graph("unprepared");
    PM.FloorDemoted = Graph("unprepared");
    Models.push_back(std::move(PM));
  }
}

SystemConfig Server::configFor(int GrantedChannels) const {
  // Mirrors the recovery ladder's remap: the plan stays fixed and only
  // Pim.Channels shrinks to the granted count (GPU lanes keep the planned
  // grouping — physically the ungranted PIM channels belong to *other*
  // sessions, not to this request's GPU).
  SystemConfig C = Flow.config();
  C.Pim.Channels = GrantedChannels;
  return C;
}

void Server::prepare() {
  if (Prepared)
    return;
  Prepared = true;

  const int Floor = std::clamp(Options.Flow.PimFloor, 0, Planned);
  for (PreparedModel &PM : Models) {
    // plan() consults the plan cache when configured, so a serve start
    // replays PR 7 artifacts instead of re-searching warm models.
    ExecutionPlan Plan = Flow.plan(PM.Model);
    PM.Materialized = Flow.materialize(PM.Model, Plan);
    // The GPU floor: the same transformed graph with every PIM node
    // demoted — the recovery ladder's whole-graph fallback, precomputed
    // once since serve falls back per request, not per fault.
    PM.FloorDemoted = PM.Materialized;
    for (const Node &N : PM.FloorDemoted.nodes())
      if (!N.Dead && N.Dev == Device::Pim)
        PM.FloorDemoted.node(N.Id).Dev = Device::Gpu;
    PM.UnitTimelines.assign(static_cast<size_t>(Planned) + 1, Timeline{});
  }

  // Price every reachable (model, granted-channels) pair once: c = 0 is
  // the GPU floor, c in [max(1, Floor), MaxGrant] the (possibly degraded)
  // PIM grants — a grant never exceeds the smaller of the plan's want and
  // the pool. Pricing runs under a throwaway scope so it never pollutes
  // the caller's registries. The request trace replays each whole node
  // schedule as the exec-phase span tree under each attempt.
  const int MaxGrant = std::min(Planned, Pool);
  obs::Scope Throwaway;
  obs::ScopeGuard Guard(Throwaway);
  for (PreparedModel &PM : Models) {
    PM.UnitTimelines[0] =
        ExecutionEngine(configFor(0)).execute(PM.FloorDemoted);
    for (int C = std::max(1, Floor); C <= MaxGrant; ++C)
      PM.UnitTimelines[static_cast<size_t>(C)] =
          ExecutionEngine(configFor(C)).execute(PM.Materialized);
  }
}

const Timeline *Server::unitTimeline(int ModelIdx, int Channels) const {
  if (!Prepared || ModelIdx < 0 ||
      ModelIdx >= static_cast<int>(Models.size()))
    return nullptr;
  const PreparedModel &PM = Models[static_cast<size_t>(ModelIdx)];
  if (Channels < 0 ||
      Channels >= static_cast<int>(PM.UnitTimelines.size()))
    return nullptr;
  const Timeline &TL = PM.UnitTimelines[static_cast<size_t>(Channels)];
  return TL.Nodes.empty() ? nullptr : &TL;
}

ServeResult Server::run(const LoadSpec &Spec, DiagnosticEngine *DE) {
  prepare();

  const int Floor = std::clamp(Options.Flow.PimFloor, 0, Planned);
  const int MaxInflight = std::max(1, Options.MaxInflight);
  const int MaxQueue = std::max(0, Options.MaxQueue);
  const int64_t DefaultDeadlineNs = Options.DefaultDeadlineUs * 1000;
  // Per-session fault retries default to the PR 4 ladder's per-run
  // budget; the global budget bounds the whole stream.
  const int SessionBudget = Options.SessionRetryBudget >= 0
                                ? Options.SessionRetryBudget
                                : std::max(0, Options.Flow.MaxRetries);
  int RetryBudgetLeft = std::max(0, Options.RetryBudget);

  ServeResult R;
  for (const PreparedModel &PM : Models)
    R.ModelNames.push_back(PM.Name);
  R.PolicyName = policyName(Options.Policy);
  R.PlannedChannels = Planned;
  R.PoolChannels = Pool;
  R.Floor = Floor;
  R.MaxInflight = MaxInflight;
  R.MaxQueue = MaxQueue;
  R.Seed = Spec.Seed;
  R.DefaultDeadlineUs = Options.DefaultDeadlineUs;
  R.RetryBudget = std::max(0, Options.RetryBudget);
  R.BreakerThreshold = Options.BreakerThreshold;
  R.BreakerCooldownUs = Options.BreakerCooldownUs;
  R.FaultSummary = Options.Faults.describe();

  const std::vector<Request> Requests =
      generateRequests(Spec, static_cast<int>(Models.size()));
  R.Sessions.reserve(Requests.size());
  for (const Request &Q : Requests) {
    auto S = std::make_unique<Session>();
    S->Req = Q;
    S->ChannelsWanted = Planned;
    // The trace context travels with the session from generation on:
    // the id is the lane key, the seeded trace id the cross-artifact
    // correlation key.
    S->TraceId = requestTraceId(Spec.Seed, Q.Id);
    const int64_t BudgetNs =
        Q.DeadlineNs > 0 ? Q.DeadlineNs : DefaultDeadlineNs;
    S->DeadlineNs = BudgetNs > 0 ? Q.ArrivalNs + BudgetNs : 0;
    R.Sessions.push_back(std::move(S));
  }

  ChannelAllocator Alloc(Pool);
  ChannelScoreboard Health(Pool, Options.BreakerThreshold,
                       Options.BreakerCooldownUs * 1000, Spec.Seed);

  // Statically dead channels never serve: quarantined from t = 0, no
  // readmission path (their outage has no end).
  for (int Ch = 0; Ch < Pool; ++Ch)
    if (Options.Faults.channelDead(Ch)) {
      Alloc.quarantine(Ch);
      Health.noteQuarantine(Ch, 0);
    }

  ThreadPool Workers(static_cast<unsigned>(std::max(0, Options.Jobs)));

  // Each completed request's engine run, re-executed for real under the
  // session's private scope. The virtual completion time comes from the
  // duration table, so worker timing never reorders the event loop; the
  // run result is cross-checked against the table below. Submission
  // happens at *completion* time so an interrupted-and-retried session
  // executes exactly once, under its final granted configuration.
  struct RunResult {
    double TotalNs = 0.0;
    int MissingNodes = 0;
  };
  std::vector<std::pair<size_t, std::future<RunResult>>> Runs;
  auto submitRun = [&](Session &S) {
    const size_t Idx = static_cast<size_t>(S.Req.Id);
    const int C = S.channelsGranted();
    Runs.emplace_back(Idx, Workers.submit([this, &S, C]() -> RunResult {
      obs::ScopeGuard Guard(S.Scope);
      const PreparedModel &PM =
          Models[static_cast<size_t>(S.Req.ModelIdx)];
      const Graph &G = C > 0 ? PM.Materialized : PM.FloorDemoted;
      ExecutionEngine Engine(configFor(C));
      const Timeline TL = Engine.execute(G);
      RunResult RR;
      RR.TotalNs = TL.TotalNs;
      // Partially-executed-timeline guard: every live node must have a
      // schedule entry. Absence is a diagnostic (serve.timeline-gap),
      // never a fatal() killing the server.
      std::vector<char> Scheduled(G.numNodesIncludingDead(), 0);
      for (const NodeSchedule &NS : TL.Nodes)
        Scheduled[static_cast<size_t>(NS.Id)] = 1;
      for (const Node &N : G.nodes())
        if (!N.Dead && !Scheduled[static_cast<size_t>(N.Id)])
          ++RR.MissingNodes;
      return RR;
    }));
  };

  // The discrete-event loop: single-threaded, over virtual nanoseconds.
  // Three event sources merge on (time, priority): channel recoveries
  // and breaker probes first (freed channels are visible at the same
  // instant), then completions, then outage starts, then arrivals —
  // so a completion at t sees the machine state after recoveries at t,
  // and an arrival at t sees capacity freed by completions at t, but a
  // channel dying at t cannot retroactively kill a run that finished
  // at t.
  struct Completion {
    int64_t EndNs;
    int Id;
    int Gen; ///< stale when != the session's current generation
    bool operator>(const Completion &O) const {
      return EndNs != O.EndNs ? EndNs > O.EndNs : Id > O.Id;
    }
  };
  std::priority_queue<Completion, std::vector<Completion>,
                      std::greater<Completion>>
      Completions;

  enum class TimerKind : uint8_t { OutageEnd, Probe, OutageStart };
  struct Timer {
    int64_t T;
    int Prio; ///< cross-source order: see PrioOf below
    uint64_t Seq;
    TimerKind K;
    int Ch;
    int Aux = -1; ///< outage ordinal for OutageStart/End timers
    bool operator>(const Timer &O) const {
      if (T != O.T)
        return T > O.T;
      if (Prio != O.Prio)
        return Prio > O.Prio;
      return Seq > O.Seq;
    }
  };
  constexpr int PrioOutageEnd = 0, PrioProbe = 1, PrioCompletion = 2,
                PrioOutageStart = 3, PrioArrival = 4;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> Timers;
  uint64_t TimerSeq = 0;
  for (const ChannelOutage &O : Options.Faults.outages()) {
    if (O.Channel < 0 || O.Channel >= Pool)
      continue; // out-of-pool entries are inert, like the static classes
    Timers.push({O.StartNs, PrioOutageStart, TimerSeq++,
                 TimerKind::OutageStart, O.Channel, O.Id});
    Timers.push({O.EndNs, PrioOutageEnd, TimerSeq++, TimerKind::OutageEnd,
                 O.Channel, O.Id});
    R.Outages.push_back(O); // pool-clamped: the trace's fault lanes
  }

  std::deque<int> Waiting;
  std::map<int, ChannelGrant> LiveGrants;
  int Inflight = 0;

  auto price = [&](Session &S, int C, int64_t Now) {
    const Timeline &TL = Models[static_cast<size_t>(S.Req.ModelIdx)]
                             .UnitTimelines[static_cast<size_t>(C)];
    S.UnitNs = TL.TotalNs;
    S.UnitEnergyJ = TL.EnergyJ;
    // Micro-batching: a batch-B request replays the unit run B times
    // back to back on its granted channels.
    const int64_t ServiceNs = std::max<int64_t>(
        1, std::llround(S.UnitNs * static_cast<double>(S.Req.Batch)));
    S.EndNs = Now + ServiceNs;
    if (!S.Attempts.empty()) {
      // The attempt record projects its completion and carries the unit
      // run's busy split — overwritten with the interrupt instant if an
      // outage cuts the attempt short.
      ExecAttempt &A = S.Attempts.back();
      A.EndNs = S.EndNs;
      A.UnitGpuBusyNs = TL.GpuBusyNs;
      A.UnitPimBusyNs = TL.PimBusyNs;
    }
    Completions.push({S.EndNs, S.Req.Id, S.Gen});
  };

  auto recordAttempt = [](Session &S, int64_t Now) {
    ExecAttempt A;
    A.StartNs = Now;
    A.Channels = S.Channels;
    A.Outcome = S.Outcome;
    A.Reason = S.Reason;
    S.Attempts.push_back(std::move(A));
  };

  auto start = [&](Session &S, int64_t Now) {
    S.StartNs = Now;
    int C = 0;
    if (auto Grant = Alloc.tryAcquire(Planned, Floor)) {
      C = Grant->granted();
      S.Outcome = Grant->degraded() ? RequestOutcome::Degraded
                                    : RequestOutcome::Served;
      S.Reason = Grant->degraded() ? OutcomeReason::Contention
                                   : OutcomeReason::None;
      S.Channels = Grant->Channels;
      if (!S.Channels.empty())
        R.Grants.push_back({Now, S.Req.Id, S.Channels});
      LiveGrants.emplace(S.Req.Id, std::move(*Grant));
    } else {
      S.Outcome = RequestOutcome::FloorFallback;
      S.Reason = OutcomeReason::BelowFloor;
    }
    recordAttempt(S, Now);
    obs::flightEvent(obs::FlightEventKind::RequestAdmit, Now, C, Planned,
                     0.0, outcomeName(S.Outcome), S.Req.Id);
    price(S, C, Now);
    ++Inflight;
  };

  // A channel outage cutting a live grant: surrender the grant (the dead
  // channel stays quarantined), then either consume retry budget for an
  // immediate re-grant — the PR 4 ladder's remap, re-priced and restarted
  // at Now — or demote straight to the GPU floor. Either way the old
  // completion entry is a stale generation.
  auto interrupt = [&](Session &S, int64_t Now, int OutageId) {
    ++R.FaultInterrupts;
    ++S.Interrupts;
    auto It = LiveGrants.find(S.Req.Id);
    if (It == LiveGrants.end()) {
      obs::addCounter("serve.internal_errors");
      if (DE)
        DE->error(DiagCode::ServeInternal,
                  formatStr("request %d", S.Req.Id),
                  "interrupted session holds no grant");
      return;
    }
    if (!S.Attempts.empty()) {
      // Close the cut attempt at the interrupt instant, remembering the
      // outage window that killed it.
      ExecAttempt &A = S.Attempts.back();
      A.EndNs = Now;
      A.Interrupted = true;
      A.OutageId = OutageId;
    }
    Alloc.release(It->second, DE);
    LiveGrants.erase(It);
    ++S.Gen;
    S.Channels.clear();
    int C = 0;
    if (S.Retries < SessionBudget && RetryBudgetLeft > 0) {
      // A retry *attempt* consumes budget even when the shrunken pool can
      // no longer supply the floor — that admission-style decision is
      // what the attempt bought.
      --RetryBudgetLeft;
      ++S.Retries;
      ++R.RetriesUsed;
      if (auto Grant = Alloc.tryAcquire(Planned, Floor)) {
        C = Grant->granted();
        S.Outcome = Grant->degraded() ? RequestOutcome::Degraded
                                      : RequestOutcome::Served;
        S.Reason = OutcomeReason::FaultRetry;
        S.Channels = Grant->Channels;
        if (!S.Channels.empty())
          R.Grants.push_back({Now, S.Req.Id, S.Channels});
        LiveGrants.emplace(S.Req.Id, std::move(*Grant));
      } else {
        S.Outcome = RequestOutcome::FloorFallback;
        S.Reason = OutcomeReason::BelowFloor;
      }
    } else {
      ++R.RetryBudgetDenied;
      S.Outcome = RequestOutcome::FloorFallback;
      S.Reason = OutcomeReason::RetryBudget;
    }
    recordAttempt(S, Now);
    obs::flightEvent(obs::FlightEventKind::RequestRetry, Now, C, S.Retries,
                     0.0, outcomeReasonName(S.Reason), S.Req.Id);
    // Replay semantics: the interrupted work is abandoned and the request
    // restarts from Now under its final configuration (only that final
    // run is charged for energy and re-executed by a worker).
    price(S, C, Now);
  };

  size_t NextArrival = 0;
  auto peelStale = [&] {
    while (!Completions.empty() &&
           Completions.top().Gen !=
               R.Sessions[static_cast<size_t>(Completions.top().Id)]->Gen)
      Completions.pop();
  };

  while (true) {
    peelStale();
    const bool HaveArrival = NextArrival < Requests.size();
    const bool HaveCompletion = !Completions.empty();
    if (!HaveArrival && !HaveCompletion)
      break; // pending timers beyond the stream's end are irrelevant

    // Pick the earliest (time, priority) across the three sources.
    int64_t BestT = 0;
    int BestPrio = 0;
    int BestSrc = -1; // 0 = timer, 1 = completion, 2 = arrival
    auto Consider = [&](int64_t T, int Prio, int Src) {
      if (BestSrc < 0 || T < BestT || (T == BestT && Prio < BestPrio)) {
        BestT = T;
        BestPrio = Prio;
        BestSrc = Src;
      }
    };
    if (!Timers.empty())
      Consider(Timers.top().T, Timers.top().Prio, 0);
    if (HaveCompletion)
      Consider(Completions.top().EndNs, PrioCompletion, 1);
    if (HaveArrival)
      Consider(Requests[NextArrival].ArrivalNs, PrioArrival, 2);

    if (BestSrc == 0) {
      const Timer E = Timers.top();
      Timers.pop();
      switch (E.K) {
      case TimerKind::OutageStart: {
        // Find the holder first: quarantine, trip, and the interrupt
        // below are all attributed to the request whose grant the
        // outage cut (at most one — grants are exclusive).
        int Holder = -1;
        for (const auto &[Id, G] : LiveGrants) {
          if (std::find(G.Channels.begin(), G.Channels.end(), E.Ch) !=
              G.Channels.end()) {
            Holder = Id;
            break;
          }
        }
        if (!Alloc.isQuarantined(E.Ch)) {
          Alloc.quarantine(E.Ch);
          Health.noteQuarantine(E.Ch, E.T, Holder);
        }
        obs::flightEvent(obs::FlightEventKind::ChannelDead, E.T, E.Ch,
                         E.Aux, 0.0, nullptr, Holder);
        if (Health.recordFailure(E.Ch, E.T, Holder)) {
          obs::flightEvent(obs::FlightEventKind::BreakerTrip, E.T, E.Ch,
                           Health.consecutiveFailures(E.Ch), 0.0, nullptr,
                           Holder);
          Timers.push({Health.nextProbeNs(E.Ch, E.T), PrioProbe, TimerSeq++,
                       TimerKind::Probe, E.Ch});
        }
        if (Holder >= 0)
          interrupt(*R.Sessions[static_cast<size_t>(Holder)], E.T, E.Aux);
        break;
      }
      case TimerKind::OutageEnd: {
        // A closed breaker readmits the channel as soon as the outage
        // ends (unless another window still covers it); an open breaker
        // keeps it quarantined until a probe succeeds.
        if (!Health.open(E.Ch) && Alloc.isQuarantined(E.Ch) &&
            !Options.Faults.deadAt(E.Ch, E.T)) {
          Alloc.readmit(E.Ch);
          Health.noteRecovery(E.Ch, E.T);
        }
        break;
      }
      case TimerKind::Probe: {
        if (!Health.open(E.Ch))
          break; // breaker closed by an earlier probe of this chain
        const bool Healthy = !Options.Faults.deadAt(E.Ch, E.T);
        // Probes inherit the attribution of the request whose failure
        // tripped the channel: the whole cooldown chain traces back to
        // one interrupt.
        const int TripReq = Health.lastTripRequest(E.Ch);
        obs::flightEvent(obs::FlightEventKind::BreakerProbe, E.T, E.Ch,
                         Healthy ? 1 : 0, 0.0, nullptr, TripReq);
        if (Health.probe(E.Ch, E.T, Healthy)) {
          Alloc.readmit(E.Ch);
          obs::flightEvent(obs::FlightEventKind::BreakerReadmit, E.T, E.Ch,
                           -1, 0.0, nullptr, TripReq);
        } else {
          Timers.push({Health.nextProbeNs(E.Ch, E.T), PrioProbe, TimerSeq++,
                       TimerKind::Probe, E.Ch});
        }
        break;
      }
      }
      continue;
    }

    if (BestSrc == 1) {
      const Completion Done = Completions.top();
      Completions.pop();
      Session &S = *R.Sessions[static_cast<size_t>(Done.Id)];
      auto It = LiveGrants.find(Done.Id);
      if (It != LiveGrants.end()) {
        // A finished run is a success signal for every channel it held.
        for (int Ch : It->second.Channels)
          Health.recordSuccess(Ch);
        Alloc.release(It->second, DE);
        LiveGrants.erase(It);
      }
      --Inflight;
      obs::flightEvent(obs::FlightEventKind::RequestDone, Done.EndNs,
                       S.channelsGranted(), S.Retries,
                       static_cast<double>(S.latencyNs()), nullptr,
                       S.Req.Id);
      submitRun(S);
      while (!Waiting.empty() && Inflight < MaxInflight) {
        Session &Next = *R.Sessions[static_cast<size_t>(Waiting.front())];
        Waiting.pop_front();
        // Deadline shedding: a queued request whose budget has already
        // passed is dead on arrival at the head of the line. Its shed
        // instant is the deadline itself (when it became undeliverable),
        // not the completion that happened to pop it.
        if (Next.hasDeadline() && Done.EndNs >= Next.DeadlineNs) {
          Next.Outcome = RequestOutcome::Shed;
          Next.Reason = OutcomeReason::DeadlineExpired;
          Next.StartNs = Next.EndNs = Next.DeadlineNs;
          obs::flightEvent(obs::FlightEventKind::RequestShed,
                           Next.DeadlineNs,
                           static_cast<int32_t>(Next.Reason), -1, 0.0,
                           outcomeReasonName(Next.Reason), Next.Req.Id);
          continue;
        }
        start(Next, Done.EndNs);
      }
      continue;
    }

    const Request &Q = Requests[NextArrival++];
    Session &S = *R.Sessions[static_cast<size_t>(Q.Id)];
    if (Inflight < MaxInflight) {
      start(S, Q.ArrivalNs);
    } else if (static_cast<int>(Waiting.size()) < MaxQueue) {
      Waiting.push_back(Q.Id);
    } else {
      S.Outcome = RequestOutcome::Shed;
      S.Reason = OutcomeReason::QueueFull;
      S.StartNs = S.EndNs = Q.ArrivalNs;
      obs::flightEvent(obs::FlightEventKind::RequestShed, Q.ArrivalNs,
                       static_cast<int32_t>(S.Reason), -1, 0.0,
                       outcomeReasonName(S.Reason), S.Req.Id);
    }
  }
  if (Inflight != 0 || !LiveGrants.empty() || !Waiting.empty()) {
    // Survivable invariant breach: report and keep serving the summary
    // instead of aborting a release-mode server.
    obs::addCounter("serve.internal_errors");
    if (DE)
      DE->error(DiagCode::ServeInternal, "event loop",
                formatStr("finished with live state (inflight=%d, "
                          "grants=%d, waiting=%d)",
                          Inflight, static_cast<int>(LiveGrants.size()),
                          static_cast<int>(Waiting.size())));
  }

  // Drain the real runs and cross-check them against the duration table:
  // a session's engine run must price exactly like the pricing pass (same
  // graph, same config, deterministic engine) or the table lied.
  for (auto &[Idx, Fut] : Runs) {
    const RunResult RR = Fut.get();
    Session &S = *R.Sessions[Idx];
    if (std::abs(RR.TotalNs - S.UnitNs) >= 0.5) {
      obs::addCounter("serve.internal_errors");
      if (DE)
        DE->error(DiagCode::ServeInternal,
                  formatStr("request %d", S.Req.Id),
                  "session run disagrees with the duration table");
    }
    if (RR.MissingNodes == 0)
      continue;
    // Counted here, in the caller's scope: the session's scope is
    // private to its run and no export reads it.
    obs::addCounter("serve.timeline_gaps", RR.MissingNodes);
    if (DE)
      DE->warning(DiagCode::ServeTimelineGap,
                  formatStr("request %d", S.Req.Id),
                  formatStr("%d node(s) missing from the executed "
                            "timeline",
                            RR.MissingNodes));
  }

  // Aggregates + the serve.* families, recorded into the caller's scope
  // in request-id order so exports are deterministic.
  std::vector<int64_t> Latencies, QueueDelays;
  for (const auto &SP : R.Sessions) {
    const Session &S = *SP;
    obs::addCounter("serve.requests");
    switch (S.Outcome) {
    case RequestOutcome::Served:
      ++R.Served;
      obs::addCounter("serve.served");
      break;
    case RequestOutcome::Degraded:
      ++R.Degraded;
      obs::addCounter("serve.degraded");
      break;
    case RequestOutcome::FloorFallback:
      ++R.FloorFallbacks;
      obs::addCounter("serve.floor_fallbacks");
      if (S.Reason == OutcomeReason::RetryBudget)
        ++R.FloorRetryBudget;
      else
        ++R.FloorBelowFloor;
      break;
    case RequestOutcome::Shed:
      ++R.Shed;
      obs::addCounter("serve.shed");
      if (S.Reason == OutcomeReason::DeadlineExpired) {
        ++R.ShedDeadline;
        obs::addCounter("serve.shed_deadline_expired");
      } else {
        ++R.ShedQueueFull;
        obs::addCounter("serve.shed_queue_full");
      }
      break;
    }
    switch (S.deadlineState()) {
    case DeadlineState::None:
      break;
    case DeadlineState::Met:
      ++R.DeadlineMet;
      obs::addCounter("serve.deadline.met");
      // Slack/overrun split into two non-negative histograms: the
      // log-linear registry buckets non-positive samples at zero, so a
      // signed slack would lose the miss magnitudes.
      obs::recordMetric("serve.deadline_slack_ns",
                        static_cast<double>(S.DeadlineNs - S.EndNs));
      break;
    case DeadlineState::MissedRun:
      ++R.DeadlineMissedRun;
      obs::addCounter("serve.deadline.missed_run");
      obs::recordMetric("serve.deadline_overrun_ns",
                        static_cast<double>(S.EndNs - S.DeadlineNs));
      break;
    case DeadlineState::ExpiredQueued:
      ++R.DeadlineExpiredQueued;
      obs::addCounter("serve.deadline.expired_queued");
      break;
    }
    if (!S.ran())
      continue;
    Latencies.push_back(S.latencyNs());
    QueueDelays.push_back(S.queueDelayNs());
    R.TotalEnergyJ += S.UnitEnergyJ * S.Req.Batch;
    obs::recordMetric("serve.request_latency_ns",
                      static_cast<double>(S.latencyNs()));
    obs::recordMetric("serve.queue_delay_ns",
                      static_cast<double>(S.queueDelayNs()));
    obs::recordMetric("serve.service_ns",
                      static_cast<double>(S.serviceNs()));
  }

  R.BreakerTrips = Health.trips();
  R.BreakerProbes = Health.probes();
  R.BreakerReadmits = Health.readmits();
  R.ChannelRecoveries = Health.recoveries();
  R.HealthEvents = Health.events();
  if (R.FaultInterrupts > 0)
    obs::addCounter("serve.fault_interrupts", R.FaultInterrupts);
  if (R.RetriesUsed > 0)
    obs::addCounter("serve.retries", R.RetriesUsed);
  if (R.RetryBudgetDenied > 0)
    obs::addCounter("serve.retry_budget_denied", R.RetryBudgetDenied);
  if (R.BreakerTrips > 0)
    obs::addCounter("serve.breaker.trips", R.BreakerTrips);
  if (R.BreakerProbes > 0)
    obs::addCounter("serve.breaker.probes", R.BreakerProbes);
  if (R.BreakerReadmits > 0)
    obs::addCounter("serve.breaker.readmits", R.BreakerReadmits);
  if (R.ChannelRecoveries > 0)
    obs::addCounter("serve.channel_recoveries", R.ChannelRecoveries);

  // Exact nearest-rank percentiles over integer ns: byte-stable, unlike
  // the HDR histograms' bounded-error quantiles.
  auto Rank = [](std::vector<int64_t> &V, double Q) -> int64_t {
    if (V.empty())
      return 0;
    std::sort(V.begin(), V.end());
    const size_t N = V.size();
    size_t K = static_cast<size_t>(
        std::ceil(Q * static_cast<double>(N)));
    if (K == 0)
      K = 1;
    return V[std::min(N, K) - 1];
  };
  R.LatencyP50Ns = Rank(Latencies, 0.50);
  R.LatencyP99Ns = Rank(Latencies, 0.99);
  R.LatencyMaxNs = Latencies.empty() ? 0 : Latencies.back();
  R.QueueDelayP50Ns = Rank(QueueDelays, 0.50);
  R.QueueDelayP99Ns = Rank(QueueDelays, 0.99);

  // Tail sampling runs after the whole stream settled: membership
  // depends only on the virtual-time session records, so the sampled
  // set (like everything above) is byte-identical across --jobs.
  R.SamplePolicy = Options.Sample.describe();
  R.SampledRequests = sampleRequests(R, Options.Sample);
  for (int Id : R.SampledRequests)
    R.Sessions[static_cast<size_t>(Id)]->Sampled = true;

  PF_LOG_INFO("serve: %d requests -> %d served, %d degraded, %d floor, "
              "%d shed (latency p50 %lld ns, p99 %lld ns)",
              static_cast<int>(R.Sessions.size()), R.Served, R.Degraded,
              R.FloorFallbacks, R.Shed,
              static_cast<long long>(R.LatencyP50Ns),
              static_cast<long long>(R.LatencyP99Ns));
  return R;
}

std::string pf::serve::renderServeSummary(const ServeResult &R) {
  std::string Out = "# pimflow serve summary\n";
  Out += "models:";
  for (size_t I = 0; I < R.ModelNames.size(); ++I)
    Out += (I ? "," : " ") + R.ModelNames[I];
  Out += "\n";
  Out += formatStr("policy: %s planned_channels: %d channel_pool: %d "
                   "floor: %d max_inflight: %d max_queue: %d seed: %llu\n",
                   R.PolicyName.c_str(), R.PlannedChannels, R.PoolChannels,
                   R.Floor, R.MaxInflight, R.MaxQueue,
                   static_cast<unsigned long long>(R.Seed));
  Out += formatStr("resilience: default_deadline_us=%lld retry_budget=%d "
                   "breaker_threshold=%d breaker_cooldown_us=%lld "
                   "faults=%s\n",
                   static_cast<long long>(R.DefaultDeadlineUs),
                   R.RetryBudget, R.BreakerThreshold,
                   static_cast<long long>(R.BreakerCooldownUs),
                   R.FaultSummary.c_str());
  for (const auto &SP : R.Sessions) {
    const Session &S = *SP;
    Out += formatStr(
        "req %04d model=%s batch=%d outcome=%s reason=%s channels=%d/%d "
        "arrival_ns=%lld start_ns=%lld end_ns=%lld queue_ns=%lld "
        "latency_ns=%lld deadline=%s retries=%d\n",
        S.Req.Id,
        R.ModelNames[static_cast<size_t>(S.Req.ModelIdx)].c_str(),
        S.Req.Batch, outcomeName(S.Outcome), outcomeReasonName(S.Reason),
        S.channelsGranted(), S.ChannelsWanted,
        static_cast<long long>(S.Req.ArrivalNs),
        static_cast<long long>(S.StartNs),
        static_cast<long long>(S.EndNs),
        static_cast<long long>(S.ran() ? S.queueDelayNs() : 0),
        static_cast<long long>(S.ran() ? S.latencyNs() : 0),
        deadlineStateName(S.deadlineState()), S.Retries);
  }
  Out += formatStr("outcomes: served=%d degraded=%d floor=%d shed=%d\n",
                   R.Served, R.Degraded, R.FloorFallbacks, R.Shed);
  Out += formatStr("shed_reasons: queue_full=%d deadline_expired=%d\n",
                   R.ShedQueueFull, R.ShedDeadline);
  Out += formatStr("floor_reasons: below_floor=%d retry_budget=%d\n",
                   R.FloorBelowFloor, R.FloorRetryBudget);
  Out += formatStr("deadline: met=%d missed_run=%d expired_queued=%d\n",
                   R.DeadlineMet, R.DeadlineMissedRun,
                   R.DeadlineExpiredQueued);
  Out += formatStr("resilience: interrupts=%d retries=%d budget_denied=%d "
                   "trips=%lld probes=%lld readmits=%lld recoveries=%lld\n",
                   R.FaultInterrupts, R.RetriesUsed, R.RetryBudgetDenied,
                   static_cast<long long>(R.BreakerTrips),
                   static_cast<long long>(R.BreakerProbes),
                   static_cast<long long>(R.BreakerReadmits),
                   static_cast<long long>(R.ChannelRecoveries));
  Out += formatStr("latency_ns: p50=%lld p99=%lld max=%lld\n",
                   static_cast<long long>(R.LatencyP50Ns),
                   static_cast<long long>(R.LatencyP99Ns),
                   static_cast<long long>(R.LatencyMaxNs));
  Out += formatStr("queue_delay_ns: p50=%lld p99=%lld\n",
                   static_cast<long long>(R.QueueDelayP50Ns),
                   static_cast<long long>(R.QueueDelayP99Ns));
  return Out;
}

std::string pf::serve::renderServeBenchJson(const ServeResult &R) {
  std::string Mix;
  for (size_t I = 0; I < R.ModelNames.size(); ++I)
    Mix += (I ? "+" : "") + R.ModelNames[I];

  obs::JsonWriter W;
  W.beginObject();
  W.key("results").beginArray();
  auto Row = [&](const char *Key, double EndToEndNs, double EnergyJ) {
    W.beginObject()
        .field("figure", "Serve")
        .field("key", Key)
        .field("model", Mix)
        .field("policy", R.PolicyName)
        .field("end_to_end_ns", EndToEndNs)
        .field("energy_j", EnergyJ);
    W.key("counters")
        .beginObject()
        .field("serve.served", static_cast<int64_t>(R.Served))
        .field("serve.degraded", static_cast<int64_t>(R.Degraded))
        .field("serve.floor_fallbacks",
               static_cast<int64_t>(R.FloorFallbacks))
        .field("serve.shed", static_cast<int64_t>(R.Shed))
        .endObject();
    W.endObject();
  };
  Row("serve/latency_p50", static_cast<double>(R.LatencyP50Ns),
      R.TotalEnergyJ);
  Row("serve/latency_p99", static_cast<double>(R.LatencyP99Ns),
      R.TotalEnergyJ);
  Row("serve/queue_delay_p50", static_cast<double>(R.QueueDelayP50Ns),
      R.TotalEnergyJ);
  W.endArray();
  W.endObject();
  return W.take();
}
