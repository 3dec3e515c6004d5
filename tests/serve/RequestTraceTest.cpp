//===- tests/serve/RequestTraceTest.cpp - Request tracing tests -*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The per-request tracing contract (docs/INTERNALS.md section 15):
//
//  - Span conservation: every admitted request owns exactly one root
//    span; every request has exactly one queue span; shed requests have
//    no exec span; sampled-out requests emit zero events.
//  - Determinism: the rendered trace is byte-identical for --jobs=1 and
//    --jobs=4, because it is built from virtual-time records alone.
//  - Tail sampling covers exactly the interesting requests: shed,
//    deadline-missed, faulted, and the slowest-K completions.
//  - Correlation: flight-recorder request events and the serve report's
//    segments carry the same request/trace ids the trace lanes use.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "models/Zoo.h"
#include "obs/FlightRecorder.h"
#include "obs/Json.h"
#include "obs/Scope.h"
#include "obs/TraceCheck.h"
#include "pim/FaultModel.h"
#include "serve/ServeReport.h"
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

/// The serve_chaos baseline: a 12-channel pool under 8-channel plans, a
/// hair-trigger breaker, and mid-stream outages on channel 0 — every
/// outcome and the fault path reachable in one 24-request stream.
ServerOptions chaosOptions(int Jobs) {
  ServerOptions SO;
  SO.Flow.PimChannels = 8;
  SO.Flow.PimFloor = 2;
  SO.PoolChannels = 12;
  SO.MaxInflight = 3;
  SO.MaxQueue = 2;
  SO.Jobs = Jobs;
  SO.BreakerThreshold = 1;
  SO.BreakerCooldownUs = 100;
  SO.RetryBudget = 8;
  DiagnosticEngine DE;
  auto F = FaultModel::parse("dead@200..700:0,dead@900..1600:0", DE);
  EXPECT_TRUE(F.has_value()) << DE.render();
  if (F)
    SO.Faults = *std::move(F);
  return SO;
}

LoadSpec chaosSpec() {
  LoadSpec Spec;
  Spec.Count = 24;
  Spec.Seed = 7;
  Spec.MeanGapUs = 50.0;
  Spec.Batches = {1, 4};
  Spec.DeadlineUs = 4000;
  return Spec;
}

/// Non-metadata events of \p Doc on (pid, tid), in file order. Metadata
/// ('M') names the process/threads and is not request data, so it does
/// not count toward a request lane's contents.
std::vector<const obs::JsonValue *>
laneEvents(const obs::JsonValue &Doc, int Pid, int Tid) {
  std::vector<const obs::JsonValue *> Out;
  const obs::JsonValue *Events = Doc.find("traceEvents");
  if (!Events)
    return Out;
  for (const obs::JsonValue &E : Events->Array) {
    const obs::JsonValue *P = E.find("ph");
    if (P && P->isString() && P->Str == "M")
      continue;
    if (static_cast<int>(E.numberOr("pid", -1)) == Pid &&
        static_cast<int>(E.numberOr("tid", -1)) == Tid)
      Out.push_back(&E);
  }
  return Out;
}

size_t countSpans(const std::vector<const obs::JsonValue *> &Lane,
                  const char *Ph, const char *Cat) {
  size_t N = 0;
  for (const obs::JsonValue *E : Lane) {
    const obs::JsonValue *P = E->find("ph");
    const obs::JsonValue *C = E->find("cat");
    if (P && P->isString() && P->Str == Ph && C && C->isString() &&
        C->Str == Cat)
      ++N;
  }
  return N;
}

TEST(RequestTraceTest, SamplePolicyParsesTheGrammar) {
  DiagnosticEngine DE;
  TraceSamplePolicy P;
  ASSERT_TRUE(TraceSamplePolicy::parse("all", P, DE));
  EXPECT_EQ(P.K, TraceSamplePolicy::Kind::All);
  EXPECT_EQ(P.describe(), "all");

  ASSERT_TRUE(TraceSamplePolicy::parse("tail", P, DE));
  EXPECT_EQ(P.K, TraceSamplePolicy::Kind::Tail);
  EXPECT_EQ(P.SlowestK, 8);
  EXPECT_EQ(P.describe(), "tail:8");

  ASSERT_TRUE(TraceSamplePolicy::parse("tail:3", P, DE));
  EXPECT_EQ(P.SlowestK, 3);
  EXPECT_EQ(P.describe(), "tail:3");

  ASSERT_TRUE(TraceSamplePolicy::parse("tail:0", P, DE));
  EXPECT_EQ(P.SlowestK, 0);
  EXPECT_FALSE(DE.hasErrors());

  for (const char *Bad : {"", "head", "tail:", "tail:-1", "tail:abc",
                          "tail:9999999999", "ALL"}) {
    DiagnosticEngine BadDE;
    TraceSamplePolicy Q;
    EXPECT_FALSE(TraceSamplePolicy::parse(Bad, Q, BadDE)) << Bad;
    EXPECT_TRUE(BadDE.hasErrors()) << Bad;
  }
}

TEST(RequestTraceTest, TraceIdsAreStableAndDistinct) {
  const uint64_t A = requestTraceId(7, 0);
  EXPECT_EQ(A, requestTraceId(7, 0));
  EXPECT_NE(A, requestTraceId(7, 1));
  EXPECT_NE(A, requestTraceId(8, 0));

  const std::string Hex = formatTraceId(A);
  ASSERT_EQ(Hex.size(), 16u);
  for (char C : Hex)
    EXPECT_TRUE((C >= '0' && C <= '9') || (C >= 'a' && C <= 'f')) << Hex;
  EXPECT_EQ(formatTraceId(0), "0000000000000000");
}

TEST(RequestTraceTest, TraceObeysSpanConservationLaws) {
  // A one-deep admission with no wait line sheds the arrivals that land
  // mid-run, so the shed laws have something to bite on; the channel-0
  // outages still interrupt live grants.
  ServerOptions SO = chaosOptions(1);
  SO.MaxInflight = 1;
  SO.MaxQueue = 0;
  Server S(tenants(), SO);
  const ServeResult R = S.run(chaosSpec());
  // The stream must exercise both the shed and the fault paths for the
  // laws below to bite.
  ASSERT_GT(R.Shed, 0);
  ASSERT_GT(R.FaultInterrupts, 0);

  const std::string Trace = S.renderTrace(R);
  std::string Error;
  const auto Doc = obs::JsonValue::parse(Trace, &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  obs::TraceCheckSummary Summary;
  ASSERT_TRUE(obs::checkChromeTrace(*Doc, Error, &Summary)) << Error;

  // Under the default all policy, every request is sampled.
  ASSERT_EQ(R.SampledRequests.size(), R.Sessions.size());
  for (const auto &SP : R.Sessions) {
    const Session &Sess = *SP;
    const auto Lane = laneEvents(*Doc, 3, Sess.Req.Id);
    ASSERT_FALSE(Lane.empty()) << "req " << Sess.Req.Id;
    // Exactly one root span and one queue span per request.
    EXPECT_EQ(countSpans(Lane, "B", "serve.request"), 1u)
        << "req " << Sess.Req.Id;
    EXPECT_EQ(countSpans(Lane, "E", "serve.request"), 1u)
        << "req " << Sess.Req.Id;
    EXPECT_EQ(countSpans(Lane, "B", "serve.queue"), 1u)
        << "req " << Sess.Req.Id;
    // Shed requests never opened an exec span; ran requests opened one
    // per attempt.
    const size_t ExecSpans = countSpans(Lane, "B", "serve.exec");
    if (Sess.ran())
      EXPECT_EQ(ExecSpans, Sess.Attempts.size()) << "req " << Sess.Req.Id;
    else
      EXPECT_EQ(ExecSpans, 0u) << "req " << Sess.Req.Id;
  }
}

TEST(RequestTraceTest, SampledOutRequestsEmitZeroEvents) {
  ServerOptions SO = chaosOptions(1);
  DiagnosticEngine DE;
  ASSERT_TRUE(TraceSamplePolicy::parse("tail:2", SO.Sample, DE));
  Server S(tenants(), SO);
  const ServeResult R = S.run(chaosSpec());
  ASSERT_LT(R.SampledRequests.size(), R.Sessions.size());

  std::string Error;
  const auto Doc = obs::JsonValue::parse(S.renderTrace(R), &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  ASSERT_TRUE(obs::checkChromeTrace(*Doc, Error)) << Error;

  const std::set<int> Sampled(R.SampledRequests.begin(),
                              R.SampledRequests.end());
  for (const auto &SP : R.Sessions) {
    const int Id = SP->Req.Id;
    EXPECT_EQ(SP->Sampled, Sampled.count(Id) == 1) << "req " << Id;
    if (!Sampled.count(Id)) {
      EXPECT_TRUE(laneEvents(*Doc, 3, Id).empty())
          << "unsampled req " << Id << " leaked trace events";
    }
  }
}

TEST(RequestTraceTest, TailSamplingCoversShedMissedAndFaulted) {
  ServerOptions SO = chaosOptions(1);
  DiagnosticEngine DE;
  ASSERT_TRUE(TraceSamplePolicy::parse("tail:0", SO.Sample, DE));
  Server S(tenants(), SO);
  LoadSpec Spec = chaosSpec();
  // Tighter deadlines than the chaos baseline so all three tail classes
  // (shed, missed-run, faulted) appear.
  Spec.Count = 32;
  Spec.MeanGapUs = 2.0;
  Spec.DeadlineUs = 30;
  const ServeResult R = S.run(Spec);
  ASSERT_GT(R.Shed, 0);
  ASSERT_GT(R.DeadlineMissedRun, 0);

  EXPECT_TRUE(std::is_sorted(R.SampledRequests.begin(),
                             R.SampledRequests.end()));
  const std::set<int> Sampled(R.SampledRequests.begin(),
                              R.SampledRequests.end());
  for (const auto &SP : R.Sessions) {
    const Session &Sess = *SP;
    const bool Tail =
        !Sess.ran() ||
        Sess.deadlineState() == DeadlineState::MissedRun ||
        Sess.Interrupts > 0 || Sess.Retries > 0 ||
        Sess.Reason == OutcomeReason::FaultRetry ||
        Sess.Reason == OutcomeReason::RetryBudget;
    // With SlowestK = 0 the tail classes are the *whole* sampled set.
    EXPECT_EQ(Sampled.count(Sess.Req.Id) == 1, Tail)
        << "req " << Sess.Req.Id;
  }
}

TEST(RequestTraceTest, TraceIsByteIdenticalAcrossJobCounts) {
  std::string Traces[2];
  for (int I = 0; I < 2; ++I) {
    ServerOptions SO = chaosOptions(I == 0 ? 1 : 4);
    DiagnosticEngine DE;
    ASSERT_TRUE(TraceSamplePolicy::parse("tail", SO.Sample, DE));
    Server S(tenants(), SO);
    Traces[I] = S.renderTrace(S.run(chaosSpec()));
  }
  EXPECT_EQ(Traces[0], Traces[1]);
}

TEST(RequestTraceTest, FlightEventsCarryRequestIds) {
  obs::FlightRecorder &FR = obs::FlightRecorder::instance();
  FR.clear();
  FR.setEnabled(true);

  Server S(tenants(), chaosOptions(1));
  const ServeResult R = S.run(chaosSpec());
  ASSERT_GT(R.RetriesUsed, 0);

  int Admits = 0, Dones = 0, Retries = 0, Sheds = 0;
  for (const obs::FlightEvent &E : FR.merged()) {
    switch (E.Kind) {
    case obs::FlightEventKind::RequestAdmit:
      ++Admits;
      EXPECT_GE(E.Req, 0);
      break;
    case obs::FlightEventKind::RequestDone:
      ++Dones;
      EXPECT_GE(E.Req, 0);
      break;
    case obs::FlightEventKind::RequestRetry:
      ++Retries;
      EXPECT_GE(E.Req, 0);
      break;
    case obs::FlightEventKind::RequestShed:
      ++Sheds;
      EXPECT_GE(E.Req, 0);
      break;
    default:
      break;
    }
  }
  // The ring holds 256 events per thread and the single-threaded loop
  // emits well under that here, so the tallies are exact.
  EXPECT_EQ(Admits, R.completed());
  EXPECT_EQ(Dones, R.completed());
  EXPECT_EQ(Retries, R.RetriesUsed);
  EXPECT_EQ(Sheds, R.Shed);

  // Breaker trips caused by interrupting a live grant are attributed to
  // the grant holder, and the trip's probes/readmit inherit the id.
  bool SawAttributedTrip = false;
  for (const obs::FlightEvent &E : FR.merged())
    if (E.Kind == obs::FlightEventKind::BreakerTrip && E.Req >= 0)
      SawAttributedTrip = true;
  EXPECT_TRUE(SawAttributedTrip);
  EXPECT_NE(FR.renderText().find("req="), std::string::npos);
  FR.clear();
}

TEST(RequestTraceTest, HealthEventsAttributeTheTrippingRequest) {
  Server S(tenants(), chaosOptions(1));
  const ServeResult R = S.run(chaosSpec());
  ASSERT_GT(R.BreakerTrips, 0);

  // A trip with a known holder passes its request id to the cooldown
  // probes and the eventual readmit of the same channel.
  std::map<int, int> LastTripReq;
  for (const BreakerEvent &E : R.HealthEvents) {
    if (E.K == BreakerEvent::Kind::Trip) {
      LastTripReq[E.Channel] = E.ReqId;
    } else if (E.K == BreakerEvent::Kind::Probe ||
               (E.K == BreakerEvent::Kind::Readmit && E.Ok)) {
      EXPECT_EQ(E.ReqId, LastTripReq.count(E.Channel)
                             ? LastTripReq[E.Channel]
                             : -1)
          << "channel " << E.Channel;
    }
  }
}

TEST(RequestTraceTest, ReportRendersRequestSegments) {
  obs::Scope Caller;
  obs::ScopeGuard Guard(Caller);
  Server S(tenants(), chaosOptions(1));
  const ServeResult R = S.run(chaosSpec());

  // Pick a faulted request: it has both an exec and a retry segment.
  int Faulted = -1;
  for (const auto &SP : R.Sessions)
    if (SP->Interrupts > 0 && SP->ran())
      Faulted = SP->Req.Id;
  ASSERT_GE(Faulted, 0);

  std::string Error;
  const auto Doc = obs::JsonValue::parse(renderServeReport(R), &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;

  std::string RenderError;
  const std::string Text =
      renderServeRequestText(*Doc, Faulted, &RenderError);
  ASSERT_FALSE(Text.empty()) << RenderError;
  EXPECT_NE(Text.find("queue-wait"), std::string::npos);
  EXPECT_NE(Text.find("grant"), std::string::npos);
  EXPECT_NE(Text.find("exec-phase"), std::string::npos);
  EXPECT_NE(Text.find("retry"), std::string::npos);
  EXPECT_NE(Text.find(formatTraceId(
                R.Sessions[static_cast<size_t>(Faulted)]->TraceId)),
            std::string::npos);

  // Unknown ids and unsampled ids are errors, not empty renders.
  EXPECT_TRUE(renderServeRequestText(*Doc, 9999, &RenderError).empty());
  EXPECT_NE(RenderError.find("not in the report"), std::string::npos);
}

} // namespace
