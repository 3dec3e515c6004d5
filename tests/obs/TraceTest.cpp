//===- tests/obs/TraceTest.cpp - tracer/counter/export tests ----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "models/Zoo.h"
#include "obs/ChromeTrace.h"
#include "obs/Counters.h"
#include "obs/Json.h"
#include "obs/Scope.h"

using namespace pf;

namespace {

/// Every test runs with a clean, enabled observability layer and leaves it
/// disabled (the layer is process-global; tests must not leak state).
class TraceTest : public ::testing::Test {
protected:
  void SetUp() override {
    obs::setObservabilityEnabled(true);
    obs::resetAll();
  }
  void TearDown() override {
    obs::resetAll();
    obs::setObservabilityEnabled(false);
  }
};

} // namespace

TEST_F(TraceTest, DisabledScopeRecordsNothing) {
  obs::setObservabilityEnabled(false);
  {
    PF_TRACE_SCOPE("should.not.appear");
    obs::addCounter("should.not.count");
  }
  EXPECT_EQ(obs::Tracer::instance().numEvents(), 0u);
  EXPECT_TRUE(obs::Registry::instance().counterSnapshot().empty());
}

TEST_F(TraceTest, MutedScopeRecordsNoSpan) {
  // A scope whose registry is disabled mutes its spans as well as its
  // metrics; an enabled scope and no scope at all leave spans on.
  obs::Scope Muted, Collecting;
  Muted.registry().setEnabled(false);
  {
    obs::ScopeGuard Guard(Muted);
    PF_TRACE_SCOPE("muted");
  }
  EXPECT_EQ(obs::Tracer::instance().numEvents(), 0u);
  {
    obs::ScopeGuard Guard(Collecting);
    PF_TRACE_SCOPE("scoped");
  }
  {
    PF_TRACE_SCOPE(std::string("unscoped"));
  }
  const auto Events = obs::Tracer::instance().snapshot();
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_EQ(Events[0].Name, "scoped");
  EXPECT_EQ(Events[1].Name, "unscoped");
}

TEST_F(TraceTest, NestedSpansAreContained) {
  {
    PF_TRACE_SCOPE("outer");
    {
      PF_TRACE_SCOPE_CAT("inner", "phase");
    }
  }
  const auto Events = obs::Tracer::instance().snapshot();
  ASSERT_EQ(Events.size(), 2u);
  // Scopes close inner-first.
  const obs::TraceEvent &Inner = Events[0];
  const obs::TraceEvent &Outer = Events[1];
  EXPECT_EQ(Inner.Name, "inner");
  EXPECT_EQ(Inner.Category, "phase");
  EXPECT_EQ(Outer.Name, "outer");
  EXPECT_GE(Inner.StartUs, Outer.StartUs);
  EXPECT_LE(Inner.StartUs + Inner.DurUs,
            Outer.StartUs + Outer.DurUs + 1e-6);
  EXPECT_GE(Inner.DurUs, 0.0);
}

TEST_F(TraceTest, SpansFromThreadsGetDistinctTids) {
  auto Spin = [] { PF_TRACE_SCOPE("thread.span"); };
  std::thread A(Spin), B(Spin);
  A.join();
  B.join();
  const auto Events = obs::Tracer::instance().snapshot();
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_NE(Events[0].Tid, Events[1].Tid);
}

TEST_F(TraceTest, CountersAggregateAcrossThreads) {
  constexpr int Threads = 4, PerThread = 1000;
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([] {
      for (int I = 0; I < PerThread; ++I)
        obs::addCounter("test.concurrent");
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(obs::Registry::instance().counter("test.concurrent").value(),
            Threads * PerThread);
}

TEST_F(TraceTest, HistogramTracksMinMaxMean) {
  obs::recordMetric("test.hist", 2.0);
  obs::recordMetric("test.hist", 6.0);
  obs::recordMetric("test.hist", 4.0);
  const auto S = obs::Registry::instance().histogram("test.hist").stats();
  EXPECT_EQ(S.Count, 3);
  EXPECT_EQ(S.Min, 2.0);
  EXPECT_EQ(S.Max, 6.0);
  EXPECT_DOUBLE_EQ(S.Sum, 12.0);
  EXPECT_DOUBLE_EQ(S.mean(), 4.0);
}

TEST_F(TraceTest, ResetZeroesButKeepsReferences) {
  obs::Counter &C = obs::Registry::instance().counter("test.reset");
  C.add(5);
  obs::resetAll();
  EXPECT_EQ(C.value(), 0);
  C.add(2);
  EXPECT_EQ(obs::Registry::instance().counter("test.reset").value(), 2);
}

TEST_F(TraceTest, MetadataEventsNameProcessesAndThreads) {
  // The run trace and the serve request trace share these two emitters,
  // so this one rendering pins the viewer labels of both.
  obs::JsonWriter W;
  W.beginArray();
  obs::emitProcessName(W, 3, "requests");
  obs::emitThreadName(W, 3, 7, "request 7");
  W.endArray();
  EXPECT_EQ(W.str(),
            "[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,\"tid\":0,"
            "\"args\":{\"name\":\"requests\"}},"
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":3,\"tid\":7,"
            "\"args\":{\"name\":\"request 7\"}}]");
}

TEST_F(TraceTest, ChromeTraceOfToyRunIsValidAndMultiTrack) {
  CompileResult R =
      PimFlow(OffloadPolicy::PimFlow).compileAndRun(buildToy());
  const std::string Doc = obs::renderChromeTrace(R);

  const auto Parsed = obs::JsonValue::parse(Doc);
  ASSERT_TRUE(Parsed.has_value()) << Doc.substr(0, 200);
  const obs::JsonValue *Events = Parsed->find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  EXPECT_FALSE(Events->Array.empty());

  // The compile spans recorded above plus the execution timeline must span
  // at least three tracks: compile thread, GPU lane, >=1 PIM channel.
  std::set<std::pair<double, double>> Tracks;
  bool SawCompleteEvent = false;
  for (const obs::JsonValue &E : Events->Array) {
    const obs::JsonValue *Ph = E.find("ph");
    ASSERT_NE(Ph, nullptr);
    if (Ph->Str != "X")
      continue;
    SawCompleteEvent = true;
    Tracks.insert({E.numberOr("pid", -1), E.numberOr("tid", -1)});
    EXPECT_GE(E.numberOr("dur", -1.0), 0.0);
    EXPECT_GE(E.numberOr("ts", -1.0), 0.0);
  }
  EXPECT_TRUE(SawCompleteEvent);
  EXPECT_GE(Tracks.size(), 3u);
}
