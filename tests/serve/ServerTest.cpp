//===- tests/serve/ServerTest.cpp - Serve engine tests ----------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The serve determinism contract (serve/Server.h): a given (models, spec,
// options) input yields byte-identical summaries on every run, because
// outcomes are decided by the virtual-time event loop over the priced
// table, and each request's engine re-run only cross-checks that table.
//
//===----------------------------------------------------------------------===//

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "models/Zoo.h"
#include "obs/FlightRecorder.h"
#include "obs/Scope.h"
#include "obs/Trace.h"
#include "serve/ServeReport.h"
#include "serve/Server.h"
#include "support/Diagnostics.h"
#include "support/StringUtil.h"

using namespace pf;
using namespace pf::serve;

namespace {

std::vector<std::pair<std::string, Graph>> twoTenants() {
  // Two tenants of the same small graph: multi-model bookkeeping without
  // multi-minute searches.
  std::vector<std::pair<std::string, Graph>> Models;
  Models.emplace_back("toy-a", buildToy());
  Models.emplace_back("toy-b", buildToy());
  return Models;
}

ServerOptions contendedOptions() {
  ServerOptions SO;
  SO.Flow.PimChannels = 8;
  SO.Flow.PimFloor = 2;
  // A pool of 1.5x the planned count: the second taker finds a partial
  // remainder, which is what makes degraded grants reachable at all.
  SO.PoolChannels = 12;
  SO.MaxInflight = 3;
  SO.MaxQueue = 1;
  return SO;
}

LoadSpec burstySpec() {
  LoadSpec Spec;
  Spec.Count = 32;
  Spec.Seed = 9;
  Spec.MeanGapUs = 2.0; // well under toy's service time: heavy contention
  Spec.Batches = {1, 4};
  return Spec;
}

TEST(ServerTest, SecondRunIsByteIdentical) {
  // The second run() reuses the prepared table and replays the stream.
  const LoadSpec Spec = burstySpec();
  Server S(twoTenants(), contendedOptions());
  const std::string First = renderServeSummary(S.run(Spec));
  EXPECT_EQ(renderServeSummary(S.run(Spec)), First);
}

TEST(ServerTest, ContentionReachesEveryOutcome) {
  Server S(twoTenants(), contendedOptions());
  DiagnosticEngine DE;
  const ServeResult R = S.run(burstySpec(), &DE);

  EXPECT_EQ(static_cast<int>(R.Sessions.size()), 32);
  EXPECT_EQ(R.Served + R.Degraded + R.FloorFallbacks + R.Shed, 32);
  EXPECT_GT(R.Served, 0);
  EXPECT_GT(R.Degraded, 0);
  EXPECT_GT(R.FloorFallbacks, 0);
  EXPECT_GT(R.Shed, 0);

  // Fully-executed timelines: no serve.timeline-gap diagnostics.
  EXPECT_FALSE(DE.hasCode(DiagCode::ServeTimelineGap));
  EXPECT_FALSE(DE.hasErrors());

  for (const auto &SP : R.Sessions) {
    const Session &Sess = *SP;
    EXPECT_LE(Sess.channelsGranted(), Sess.ChannelsWanted);
    switch (Sess.Outcome) {
    case RequestOutcome::Served:
      EXPECT_EQ(Sess.channelsGranted(), Sess.ChannelsWanted);
      break;
    case RequestOutcome::Degraded:
      EXPECT_GE(Sess.channelsGranted(), 2); // the floor
      EXPECT_LT(Sess.channelsGranted(), Sess.ChannelsWanted);
      break;
    case RequestOutcome::FloorFallback:
    case RequestOutcome::Shed:
      EXPECT_EQ(Sess.channelsGranted(), 0);
      break;
    }
    if (Sess.ran()) {
      EXPECT_GE(Sess.StartNs, Sess.Req.ArrivalNs);
      EXPECT_GT(Sess.EndNs, Sess.StartNs);
    }
  }
}

TEST(ServerTest, ServeFamiliesLandInTheCallersScope) {
  obs::Scope Caller;
  obs::ScopeGuard Guard(Caller);
  Server S(twoTenants(), contendedOptions());
  const ServeResult R = S.run(burstySpec());

  int64_t Requests = 0, Served = 0, Shed = 0;
  for (const auto &[Name, V] : Caller.registry().counterSnapshot()) {
    if (Name == "serve.requests")
      Requests = V;
    else if (Name == "serve.served")
      Served = V;
    else if (Name == "serve.shed")
      Shed = V;
  }
  EXPECT_EQ(Requests, 32);
  EXPECT_EQ(Served, R.Served);
  EXPECT_EQ(Shed, R.Shed);

  bool SawLatency = false;
  for (const auto &[Name, Stats] : Caller.registry().histogramSnapshot())
    if (Name == "serve.request_latency_ns") {
      SawLatency = true;
      EXPECT_EQ(Stats.Count, R.completed());
    }
  EXPECT_TRUE(SawLatency);

  // A second run on the prepared server compiles nothing, and its
  // cross-check runs record into the muted scope: no engine, simulator
  // or codegen counter of the caller's scope moves.
  using Snapshot = std::vector<std::pair<std::string, int64_t>>;
  auto runFamilies = [&Caller] {
    Snapshot Out;
    for (const auto &[Name, V] : Caller.registry().counterSnapshot())
      if (startsWith(Name, "engine.") || startsWith(Name, "pim.") ||
          startsWith(Name, "codegen."))
        Out.emplace_back(Name, V);
    return Out;
  };
  const Snapshot Before = runFamilies();
  ASSERT_FALSE(Before.empty()); // the first run's compile recorded some
  (void)S.run(burstySpec());
  EXPECT_EQ(runFamilies(), Before);
}

TEST(ServerTest, EngineRunsRecordOnlyIntoTheMutedScope) {
  // prepare()'s pricing and every cross-check run execute the engine under
  // the muted scope: a first run leaves in the caller's scope exactly the
  // engine executions of compiling the two tenants, however many grants it
  // priced and requests it re-ran.
  auto executions = [](obs::Scope &Sc) {
    for (const auto &[Name, V] : Sc.registry().counterSnapshot())
      if (Name == "engine.executions")
        return V;
    return int64_t{0};
  };
  const ServerOptions SO = contendedOptions();
  obs::Scope Compile;
  {
    obs::ScopeGuard Guard(Compile);
    PimFlow Flow(SO.Policy, SO.Flow);
    for (const auto &[Name, G] : twoTenants())
      (void)Flow.materialize(G, Flow.plan(G));
  }

  obs::Scope Caller;
  obs::ScopeGuard Guard(Caller);
  Server S(twoTenants(), SO);
  const ServeResult R = S.run(burstySpec());
  ASSERT_GT(R.completed(), 0);
  EXPECT_EQ(executions(Caller), executions(Compile));
}

TEST(ServerTest, ReportRendersTheServeKind) {
  obs::Scope Caller;
  obs::ScopeGuard Guard(Caller);
  Server S(twoTenants(), contendedOptions());
  const ServeResult R = S.run(burstySpec());

  const std::string Report = renderServeReport(R);
  EXPECT_NE(Report.find("\"kind\":\"pimflow-serve-report\""),
            std::string::npos);
  EXPECT_NE(Report.find("\"schema_version\":5"), std::string::npos);
  EXPECT_NE(Report.find("serve.requests"), std::string::npos);
}

// The ci.sh tier-8 serve run (toy + mobilenet-v2 under
// `--requests=count:24,seed:7,mean-gap-us:150,batch:1|4 --max-inflight=3
// --channel-pool=24`). serve_summary.golden pins its outcomes and
// latencies; its total energy is in no golden, so it is pinned here, bit
// for bit.
TEST(ServerTest, TierEightRunPinsTotalEnergy) {
  std::vector<std::pair<std::string, Graph>> Models;
  Models.emplace_back("toy", buildModel("toy"));
  Models.emplace_back("mobilenet-v2", buildModel("mobilenet-v2"));
  ServerOptions SO;
  SO.MaxInflight = 3;
  SO.PoolChannels = 24;
  LoadSpec Spec;
  DiagnosticEngine DE;
  ASSERT_TRUE(
      LoadSpec::parse("count:24,seed:7,mean-gap-us:150,batch:1|4", Spec, DE));
  Server S(std::move(Models), SO);
  const ServeResult R = S.run(Spec, &DE);

  EXPECT_EQ(R.Served, 11);
  EXPECT_EQ(R.Degraded, 8);
  EXPECT_EQ(R.FloorFallbacks, 5);
  EXPECT_EQ(R.Shed, 0);
  EXPECT_EQ(R.LatencyP50Ns, 203403);
  EXPECT_EQ(R.LatencyP99Ns, 1220644);
  // The shortest text that reads back as the same double.
  EXPECT_EQ(R.TotalEnergyJ, 0.24967443512674073);
}

TEST(ServerTest, RepeatedRunsRecordOnOneThread) {
  // Every thread that records a flight event registers a ring for the
  // rest of the process. The server starts none: 20 runs, their
  // admissions and their cross-check engine runs all record on the
  // caller's thread.
  Server S(twoTenants(), contendedOptions());
  obs::FlightRecorder::instance().clear();
  for (int I = 0; I < 20; ++I)
    (void)S.run(burstySpec());
  std::set<uint32_t> Tids;
  bool SawExec = false;
  for (const obs::FlightEvent &E : obs::FlightRecorder::instance().merged()) {
    Tids.insert(E.Tid);
    SawExec |= E.Kind == obs::FlightEventKind::ExecStart;
  }
  EXPECT_EQ(Tids.size(), 1u);
  EXPECT_TRUE(SawExec);
}

TEST(ServerTest, CrossCheckRunsRecordNoSpan) {
  // The cross-check engine runs execute under the muted scope, which
  // mutes their spans too: with the tracer on, a second run() of a
  // prepared server adds no span.
  Server S(twoTenants(), contendedOptions());
  obs::Tracer &T = obs::Tracer::instance();
  const bool WasEnabled = T.enabled();
  T.setEnabled(true);
  (void)S.run(burstySpec());
  const size_t Before = T.numEvents();
  (void)S.run(burstySpec());
  EXPECT_EQ(T.numEvents(), Before);
  T.setEnabled(WasEnabled);
  T.clear();
}

TEST(ServerTest, GpuOnlyPolicyServesEverythingWithoutChannels) {
  ServerOptions SO;
  SO.Policy = OffloadPolicy::GpuOnly;
  SO.MaxInflight = 4;
  SO.MaxQueue = 64;
  LoadSpec Spec;
  Spec.Count = 8;
  Spec.Seed = 3;
  Server S(twoTenants(), SO);
  const ServeResult R = S.run(Spec);
  EXPECT_EQ(R.PlannedChannels, 0);
  EXPECT_EQ(R.Served + R.Shed, 8);
  for (const auto &SP : R.Sessions)
    EXPECT_EQ(SP->channelsGranted(), 0);
}

} // namespace
