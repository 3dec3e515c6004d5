//===- tests/serve_chaos/ServeChaosTest.cpp - Chaos-under-serve -*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The serving-resilience invariants (docs/INTERNALS.md section 14), driven
// by a seeded (load spec x fault timeline) matrix:
//
//  - Conservation: every admitted request ends in exactly one terminal
//    state, and the shed / floor reason breakdowns tile their totals.
//  - Quarantine exclusion: a channel between its quarantine and readmit
//    events never appears in a grant.
//  - Determinism: a second run of the same server is byte-identical to
//    the first even with outages opening and closing mid-stream.
//  - Breaker lifecycle: the flight recorder sees trip -> probe ->
//    (healthy) readmit in that order.
//
//===----------------------------------------------------------------------===//

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "models/Zoo.h"
#include "obs/FlightRecorder.h"
#include "obs/Scope.h"
#include "pim/FaultModel.h"
#include "serve/Server.h"

using namespace pf;
using namespace pf::serve;

namespace {

std::vector<std::pair<std::string, Graph>> tenants() {
  std::vector<std::pair<std::string, Graph>> Models;
  Models.emplace_back("toy-a", buildToy());
  Models.emplace_back("toy-b", buildToy());
  return Models;
}

/// The contended baseline of ServerTest plus the resilience knobs: a
/// 12-channel pool under 16-channel plans, a breaker that trips on the
/// first failure, and a cooldown short enough to probe mid-stream.
ServerOptions chaosOptions(FaultModel Faults) {
  ServerOptions SO;
  SO.Flow.PimChannels = 8;
  SO.Flow.PimFloor = 2;
  SO.PoolChannels = 12;
  SO.MaxInflight = 3;
  SO.MaxQueue = 2;
  SO.BreakerThreshold = 1;
  SO.BreakerCooldownUs = 100;
  SO.RetryBudget = 8;
  SO.Faults = std::move(Faults);
  return SO;
}

LoadSpec chaosSpec(uint64_t Seed) {
  LoadSpec Spec;
  Spec.Count = 24;
  Spec.Seed = Seed;
  Spec.MeanGapUs = 50.0;
  Spec.Batches = {1, 4};
  Spec.DeadlineUs = 4000;
  return Spec;
}

/// A hand-written timeline that reliably interrupts live grants: channel 0
/// is in every full-pool grant, and the windows sit inside the stream's
/// first few milliseconds.
FaultModel midStreamOutages() {
  DiagnosticEngine DE;
  auto F = FaultModel::parse("dead@200..700:0,dead@900..1600:0", DE);
  EXPECT_TRUE(F.has_value()) << DE.render();
  return F ? *std::move(F) : FaultModel();
}

void checkConservation(const ServeResult &R, int Count) {
  ASSERT_EQ(static_cast<int>(R.Sessions.size()), Count);
  EXPECT_EQ(R.Served + R.Degraded + R.FloorFallbacks + R.Shed, Count);
  EXPECT_EQ(R.Shed, R.ShedQueueFull + R.ShedDeadline);
  EXPECT_EQ(R.FloorFallbacks, R.FloorBelowFloor + R.FloorRetryBudget);

  int Retries = 0, Interrupts = 0, Met = 0, Missed = 0, Expired = 0;
  for (const auto &SP : R.Sessions) {
    const Session &S = *SP;
    Retries += S.Retries;
    Interrupts += S.Interrupts;
    // Attempt conservation (docs/INTERNALS.md section 15): every ran
    // request's attempt log tiles its execution history — one entry per
    // admission or interrupt re-grant — and shed requests never open one.
    if (S.ran()) {
      ASSERT_EQ(S.Attempts.size(), static_cast<size_t>(S.Interrupts) + 1)
          << "req " << S.Req.Id;
      EXPECT_EQ(S.Attempts.front().StartNs, S.StartNs)
          << "req " << S.Req.Id;
      EXPECT_EQ(S.Attempts.back().EndNs, S.EndNs) << "req " << S.Req.Id;
      for (size_t A = 0; A + 1 < S.Attempts.size(); ++A) {
        EXPECT_TRUE(S.Attempts[A].Interrupted) << "req " << S.Req.Id;
        EXPECT_EQ(S.Attempts[A].EndNs, S.Attempts[A + 1].StartNs)
            << "req " << S.Req.Id;
      }
      EXPECT_FALSE(S.Attempts.back().Interrupted) << "req " << S.Req.Id;
    } else {
      EXPECT_TRUE(S.Attempts.empty()) << "req " << S.Req.Id;
    }
    switch (S.deadlineState()) {
    case DeadlineState::Met:
      ++Met;
      break;
    case DeadlineState::MissedRun:
      ++Missed;
      break;
    case DeadlineState::ExpiredQueued:
      ++Expired;
      break;
    case DeadlineState::None:
      break;
    }
    switch (S.Outcome) {
    case RequestOutcome::Served:
      EXPECT_TRUE(S.Reason == OutcomeReason::None ||
                  S.Reason == OutcomeReason::FaultRetry)
          << "req " << S.Req.Id;
      break;
    case RequestOutcome::Degraded:
      EXPECT_TRUE(S.Reason == OutcomeReason::Contention ||
                  S.Reason == OutcomeReason::FaultRetry)
          << "req " << S.Req.Id;
      break;
    case RequestOutcome::FloorFallback:
      EXPECT_TRUE(S.Reason == OutcomeReason::BelowFloor ||
                  S.Reason == OutcomeReason::RetryBudget)
          << "req " << S.Req.Id;
      EXPECT_EQ(S.channelsGranted(), 0);
      break;
    case RequestOutcome::Shed:
      EXPECT_TRUE(S.Reason == OutcomeReason::QueueFull ||
                  S.Reason == OutcomeReason::DeadlineExpired)
          << "req " << S.Req.Id;
      EXPECT_EQ(S.channelsGranted(), 0);
      break;
    }
    if (S.Reason == OutcomeReason::FaultRetry) {
      EXPECT_TRUE(S.ran());
      EXPECT_GE(S.Retries, 1);
    }
  }
  EXPECT_EQ(R.RetriesUsed, Retries);
  EXPECT_EQ(R.FaultInterrupts, Interrupts);
  EXPECT_EQ(R.DeadlineMet, Met);
  EXPECT_EQ(R.DeadlineMissedRun, Missed);
  EXPECT_EQ(R.DeadlineExpiredQueued, Expired);
  EXPECT_EQ(R.DeadlineExpiredQueued, R.ShedDeadline);
}

TEST(ServeChaosTest, ConservationHoldsAcrossTheMatrix) {
  const uint64_t Seeds[] = {3, 7, 11};
  for (uint64_t Seed : Seeds) {
    std::vector<FaultModel> Timelines;
    Timelines.push_back(midStreamOutages());
    Timelines.push_back(FaultModel::chaosTimeline(Seed, 12, 2'000'000));
    Timelines.push_back(FaultModel()); // healthy machine control
    for (size_t TI = 0; TI < Timelines.size(); ++TI) {
      Server S(tenants(), chaosOptions(Timelines[TI]));
      DiagnosticEngine DE;
      const ServeResult R = S.run(chaosSpec(Seed), &DE);
      SCOPED_TRACE("seed " + std::to_string(Seed) + " timeline " +
                   std::to_string(TI));
      EXPECT_FALSE(DE.hasErrors()) << DE.render();
      checkConservation(R, 24);
    }
  }
}

TEST(ServeChaosTest, QuarantinedChannelIsNeverGranted) {
  Server S(tenants(), chaosOptions(midStreamOutages()));
  const ServeResult R = S.run(chaosSpec(7));
  ASSERT_FALSE(R.HealthEvents.empty());
  ASSERT_FALSE(R.Grants.empty());

  // Replay the health log into per-channel quarantine intervals, then
  // demand every grant instant falls outside them. Boundary instants are
  // legal: a readmit and a grant at the same virtual time are ordered
  // readmit-first by the event loop's tie-break priorities.
  struct Interval {
    int64_t From, To;
  };
  std::map<int, std::vector<Interval>> Closed;
  std::map<int, int64_t> OpenSince;
  for (const BreakerEvent &E : R.HealthEvents) {
    if (E.K == BreakerEvent::Kind::Quarantine) {
      OpenSince.emplace(E.Channel, E.TimeNs);
    } else if (E.K == BreakerEvent::Kind::Readmit) {
      auto It = OpenSince.find(E.Channel);
      ASSERT_NE(It, OpenSince.end())
          << "readmit of channel " << E.Channel << " without quarantine";
      Closed[E.Channel].push_back({It->second, E.TimeNs});
      OpenSince.erase(It);
    }
  }
  for (const ServeResult::GrantEvent &G : R.Grants)
    for (int Ch : G.Channels) {
      auto It = Closed.find(Ch);
      if (It != Closed.end()) {
        for (const Interval &I : It->second) {
          EXPECT_FALSE(G.TimeNs > I.From && G.TimeNs < I.To)
              << "channel " << Ch << " granted to req " << G.ReqId
              << " at " << G.TimeNs << " inside quarantine [" << I.From
              << ", " << I.To << "]";
        }
      }
      auto Open = OpenSince.find(Ch);
      if (Open != OpenSince.end()) {
        EXPECT_LE(G.TimeNs, Open->second)
            << "channel " << Ch << " granted to req " << G.ReqId
            << " after its unclosed quarantine at " << Open->second;
      }
    }
  // The timeline interrupted something and the breaker acted on it.
  EXPECT_GT(R.FaultInterrupts, 0);
  EXPECT_GT(R.BreakerTrips, 0);
}

TEST(ServeChaosTest, SecondRunIsByteIdenticalUnderChaos) {
  Server S(tenants(), chaosOptions(midStreamOutages()));
  const std::string First = renderServeSummary(S.run(chaosSpec(7)));
  EXPECT_EQ(renderServeSummary(S.run(chaosSpec(7))), First);
  // The run under comparison actually exercised the fault path.
  EXPECT_NE(First.find("reason=fault-retry"), std::string::npos);
}

TEST(ServeChaosTest, SpentRetryBudgetDemotesToTheFloor) {
  ServerOptions SO = chaosOptions(midStreamOutages());
  SO.RetryBudget = 0;
  Server S(tenants(), SO);
  const ServeResult R = S.run(chaosSpec(7));
  EXPECT_GT(R.FaultInterrupts, 0);
  EXPECT_EQ(R.RetriesUsed, 0);
  EXPECT_GT(R.RetryBudgetDenied, 0);
  EXPECT_GT(R.FloorRetryBudget, 0);
  checkConservation(R, 24);
}

TEST(ServeChaosTest, DeadlinesShedAndClassify) {
  obs::Scope Caller;
  obs::ScopeGuard Guard(Caller);
  // Tight 30us budget under heavy contention: some requests expire while
  // queued, some complete late, some make it.
  ServerOptions SO;
  SO.Flow.PimChannels = 8;
  SO.Flow.PimFloor = 2;
  SO.PoolChannels = 12;
  SO.MaxInflight = 2;
  SO.MaxQueue = 4;
  LoadSpec Spec;
  Spec.Count = 32;
  Spec.Seed = 9;
  Spec.MeanGapUs = 2.0;
  Spec.Batches = {1, 4};
  Spec.DeadlineUs = 30;
  Server S(tenants(), SO);
  const ServeResult R = S.run(Spec);

  EXPECT_GT(R.DeadlineMet, 0);
  EXPECT_GT(R.DeadlineMissedRun, 0);
  EXPECT_GT(R.DeadlineExpiredQueued, 0);
  EXPECT_EQ(R.ShedDeadline, R.DeadlineExpiredQueued);
  EXPECT_EQ(R.Shed, R.ShedQueueFull + R.ShedDeadline);

  int64_t Met = 0, Missed = 0, Expired = 0;
  for (const auto &[Name, V] : Caller.registry().counterSnapshot()) {
    if (Name == "serve.deadline.met")
      Met = V;
    else if (Name == "serve.deadline.missed_run")
      Missed = V;
    else if (Name == "serve.deadline.expired_queued")
      Expired = V;
  }
  EXPECT_EQ(Met, R.DeadlineMet);
  EXPECT_EQ(Missed, R.DeadlineMissedRun);
  EXPECT_EQ(Expired, R.DeadlineExpiredQueued);

  bool SawSlack = false, SawOverrun = false;
  for (const auto &[Name, Stats] : Caller.registry().histogramSnapshot()) {
    if (Name == "serve.deadline_slack_ns") {
      SawSlack = true;
      EXPECT_EQ(Stats.Count, R.DeadlineMet);
    } else if (Name == "serve.deadline_overrun_ns") {
      SawOverrun = true;
      EXPECT_EQ(Stats.Count, R.DeadlineMissedRun);
    }
  }
  EXPECT_TRUE(SawSlack);
  EXPECT_TRUE(SawOverrun);
}

TEST(ServeChaosTest, BreakerLifecycleIsOrderedInTheFlightRecorder) {
  obs::FlightRecorder &FR = obs::FlightRecorder::instance();
  FR.clear();
  FR.setEnabled(true);

  Server S(tenants(), chaosOptions(midStreamOutages()));
  const ServeResult R = S.run(chaosSpec(7));
  ASSERT_GT(R.BreakerTrips, 0);

  std::vector<obs::FlightEvent> Breaker;
  for (const obs::FlightEvent &E : FR.merged())
    if (E.Kind == obs::FlightEventKind::BreakerTrip ||
        E.Kind == obs::FlightEventKind::BreakerProbe ||
        E.Kind == obs::FlightEventKind::BreakerReadmit)
      Breaker.push_back(E);
  ASSERT_FALSE(Breaker.empty());

  // Single-threaded loop: Seq order == program order == virtual-time
  // order. The first breaker event must be the trip; every readmit must be
  // immediately preceded by a healthy probe (B == 1) of the same channel.
  EXPECT_EQ(static_cast<int>(Breaker.front().Kind),
            static_cast<int>(obs::FlightEventKind::BreakerTrip));
  int Trips = 0, Probes = 0, Readmits = 0;
  for (size_t I = 0; I < Breaker.size(); ++I) {
    const obs::FlightEvent &E = Breaker[I];
    ASSERT_TRUE(I == 0 || Breaker[I - 1].Seq < E.Seq);
    ASSERT_TRUE(I == 0 || Breaker[I - 1].Cycle <= E.Cycle);
    switch (E.Kind) {
    case obs::FlightEventKind::BreakerTrip:
      ++Trips;
      break;
    case obs::FlightEventKind::BreakerProbe:
      ++Probes;
      break;
    case obs::FlightEventKind::BreakerReadmit: {
      ++Readmits;
      ASSERT_GT(I, 0u);
      const obs::FlightEvent &Prev = Breaker[I - 1];
      EXPECT_EQ(static_cast<int>(Prev.Kind),
                static_cast<int>(obs::FlightEventKind::BreakerProbe));
      EXPECT_EQ(Prev.A, E.A); // same channel
      EXPECT_EQ(Prev.B, 1);   // the probe that found it healthy
      break;
    }
    default:
      break;
    }
  }
  EXPECT_EQ(Trips, R.BreakerTrips);
  EXPECT_EQ(Probes, R.BreakerProbes);
  EXPECT_EQ(Readmits, R.BreakerReadmits);
  FR.clear();
}

TEST(ServeChaosTest, StaticDeadChannelsStayQuarantinedForever) {
  FaultModel F;
  F.addDead(0);
  Server S(tenants(), chaosOptions(F));
  const ServeResult R = S.run(chaosSpec(3));
  checkConservation(R, 24);
  for (const ServeResult::GrantEvent &G : R.Grants)
    for (int Ch : G.Channels)
      EXPECT_NE(Ch, 0) << "statically dead channel granted to req "
                       << G.ReqId;
  // No outage window ever closes over a static death: no readmissions.
  EXPECT_EQ(R.BreakerReadmits, 0);
  EXPECT_EQ(R.ChannelRecoveries, 0);
}

} // namespace
