//===- tests/serve/ServerTest.cpp - Serve engine tests ----------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The serve determinism contract (serve/Server.h): a given (models, spec,
// options) input yields byte-identical summaries for every --jobs=N,
// because outcomes are decided by the virtual-time event loop and worker
// threads only re-execute what the loop already admitted.
//
//===----------------------------------------------------------------------===//

#include <map>
#include <string>

#include <gtest/gtest.h>

#include "models/Zoo.h"
#include "obs/Scope.h"
#include "runtime/ExecutionEngine.h"
#include "serve/ServeReport.h"
#include "serve/Server.h"
#include "support/Diagnostics.h"

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

ServerOptions contendedOptions(int Jobs) {
  ServerOptions SO;
  SO.Flow.PimChannels = 8;
  SO.Flow.PimFloor = 2;
  // A pool of 1.5x the planned count: the second taker finds a partial
  // remainder, which is what makes degraded grants reachable at all.
  SO.PoolChannels = 12;
  SO.MaxInflight = 3;
  SO.MaxQueue = 1;
  SO.Jobs = Jobs;
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

TEST(ServerTest, SummaryIsByteIdenticalAcrossJobCounts) {
  const LoadSpec Spec = burstySpec();
  std::string Summaries[2];
  for (int I = 0; I < 2; ++I) {
    Server S(twoTenants(), contendedOptions(I == 0 ? 1 : 4));
    Summaries[I] = renderServeSummary(S.run(Spec));
  }
  EXPECT_EQ(Summaries[0], Summaries[1]);
}

TEST(ServerTest, ContentionReachesEveryOutcome) {
  Server S(twoTenants(), contendedOptions(2));
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
      // The session's private scope saw exactly its own engine run.
      const auto Counters = Sess.Scope.registry().counterSnapshot();
      int64_t Executions = 0;
      for (const auto &[Name, V] : Counters)
        if (Name == "engine.executions")
          Executions = V;
      EXPECT_EQ(Executions, 1);
    }
  }
}

TEST(ServerTest, SessionScopeMatchesAStandaloneRun) {
  // A session's scope holds exactly what one scoped engine run of its
  // graph at its grant records, however many sessions run at once.
  using Snapshot = std::vector<std::pair<std::string, int64_t>>;
  for (int Jobs : {1, 4}) {
    const ServerOptions SO = contendedOptions(Jobs);
    Server S(twoTenants(), SO);
    const ServeResult R = S.run(burstySpec());

    // Both tenants serve toy: rebuild its two graphs as the server does.
    PimFlow Flow(SO.Policy, SO.Flow);
    const Graph Toy = buildToy();
    const Graph Materialized = Flow.materialize(Toy, Flow.plan(Toy));
    Graph Floor = Materialized;
    for (const Node &N : Floor.nodes())
      if (!N.Dead && N.Dev == Device::Pim)
        Floor.node(N.Id).Dev = Device::Gpu;

    std::map<int, Snapshot> Standalone; // By granted channel count.
    for (const auto &SP : R.Sessions) {
      if (!SP->ran())
        continue;
      const int C = SP->channelsGranted();
      auto [It, Fresh] = Standalone.try_emplace(C);
      if (Fresh) {
        SystemConfig Config = Flow.config();
        Config.Pim.Channels = C;
        obs::Scope Run;
        obs::ScopeGuard Guard(Run);
        ExecutionEngine(Config).execute(C > 0 ? Materialized : Floor);
        It->second = Run.registry().counterSnapshot();
      }
      EXPECT_EQ(SP->Scope.registry().counterSnapshot(), It->second)
          << "jobs " << Jobs << ", request " << SP->Req.Id << " on " << C
          << " channels";
    }
    EXPECT_GT(Standalone.size(), 2u); // Full, degraded and floor grants.
  }
}

TEST(ServerTest, ServeFamiliesLandInTheCallersScope) {
  obs::Scope Caller;
  obs::ScopeGuard Guard(Caller);
  Server S(twoTenants(), contendedOptions(1));
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
}

TEST(ServerTest, ReportAndBenchRowsRenderConsistently) {
  obs::Scope Caller;
  obs::ScopeGuard Guard(Caller);
  Server S(twoTenants(), contendedOptions(1));
  const ServeResult R = S.run(burstySpec());

  const std::string Report = renderServeReport(R);
  EXPECT_NE(Report.find("\"kind\":\"pimflow-serve-report\""),
            std::string::npos);
  EXPECT_NE(Report.find("\"schema_version\":4"), std::string::npos);
  EXPECT_NE(Report.find("serve.requests"), std::string::npos);

  const std::string Bench = renderServeBenchJson(R);
  EXPECT_NE(Bench.find("serve/latency_p50"), std::string::npos);
  EXPECT_NE(Bench.find("serve/latency_p99"), std::string::npos);
  EXPECT_NE(Bench.find("\"model\":\"toy-a+toy-b\""), std::string::npos);
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
