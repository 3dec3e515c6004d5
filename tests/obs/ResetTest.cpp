//===- tests/obs/ResetTest.cpp - resetAll coverage contract -----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Asserts the obs::resetAll() contract documented in obs/Counters.h: one
// call clears every *global* store — Tracer spans, the Registry's
// counters, histograms, gauges, windows and sim-cycle clock, and the
// FlightRecorder rings — and touches nothing else. In particular a
// session Scope's registry survives a global sweep: it belongs to the
// scope's owner and is reset only through `registry().reset()`. The bench
// harness relies on this when it brackets iterations with resetAll().
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "obs/Counters.h"
#include "obs/FlightRecorder.h"
#include "obs/Scope.h"
#include "obs/Trace.h"

using namespace pf::obs;

namespace {

class ResetTest : public ::testing::Test {
protected:
  void SetUp() override {
    resetAll();
    setObservabilityEnabled(true);
  }
  void TearDown() override {
    resetAll();
    setObservabilityEnabled(false);
  }
};

/// Populates every global registry with at least one entry.
void populateGlobals() {
  Tracer::instance().record("reset.span", "test", 0.0, 1.0);
  addCounter("reset.counter", 3);
  recordMetric("reset.metric", 4.0);
  setGauge("reset.gauge", 5.0);
  recordMetricWindowed("reset.window", TickDomain::SimCycles, 16, 8, 6.0);
  advanceSimCycles(7);
  flightEvent(FlightEventKind::ExecStart, 0, 1, 2);
}

TEST_F(ResetTest, ResetAllClearsEveryGlobalRegistry) {
  populateGlobals();

  // Everything really landed (a vacuous clear would also pass the
  // emptiness checks below).
  EXPECT_GT(Tracer::instance().numEvents(), 0u);
  EXPECT_FALSE(Registry::instance().counterSnapshot().empty());
  EXPECT_FALSE(Registry::instance().histogramSnapshot().empty());
  EXPECT_FALSE(Registry::instance().gaugeSnapshot().empty());
  EXPECT_FALSE(Registry::instance().windowSnapshot().empty());
  EXPECT_EQ(Registry::instance().cycles(), 7);
  EXPECT_FALSE(FlightRecorder::instance().merged().empty());

  resetAll();

  EXPECT_EQ(Tracer::instance().numEvents(), 0u);
  EXPECT_TRUE(Registry::instance().counterSnapshot().empty());
  EXPECT_TRUE(Registry::instance().histogramSnapshot().empty());
  EXPECT_TRUE(Registry::instance().gaugeSnapshot().empty());
  EXPECT_TRUE(Registry::instance().windowSnapshot().empty());
  EXPECT_EQ(Registry::instance().cycles(), 0);
  EXPECT_TRUE(FlightRecorder::instance().merged().empty());
}

TEST_F(ResetTest, ResetAllIsIdempotentAndKeepsRegistrations) {
  populateGlobals();
  resetAll();
  resetAll(); // a second sweep over zeroed registries is a no-op

  // Registrations survive the sweep: re-recording through the same names
  // works and starts from zero, not from pre-reset remnants.
  addCounter("reset.counter", 2);
  auto Counters = Registry::instance().counterSnapshot();
  ASSERT_EQ(Counters.size(), 1u);
  EXPECT_EQ(Counters[0].first, "reset.counter");
  EXPECT_EQ(Counters[0].second, 2);
}

TEST_F(ResetTest, SessionScopesSurviveTheGlobalSweep) {
  Scope Session;
  {
    ScopeGuard Guard(Session);
    addCounter("scoped.counter", 11);
    recordMetric("scoped.metric", 1.5);
  }
  // The scope diverted the records away from the globals...
  EXPECT_TRUE(Registry::instance().counterSnapshot().empty());
  EXPECT_TRUE(Registry::instance().histogramSnapshot().empty());

  populateGlobals();
  resetAll();

  // ...and the global sweep must not reach into the session's registry.
  auto Scoped = Session.registry().counterSnapshot();
  ASSERT_EQ(Scoped.size(), 1u);
  EXPECT_EQ(Scoped[0].second, 11);
  ASSERT_EQ(Session.registry().histogramSnapshot().size(), 1u);

  // The owner resets its own registry.
  Session.registry().reset();
  EXPECT_TRUE(Session.registry().counterSnapshot().empty());
  EXPECT_TRUE(Session.registry().histogramSnapshot().empty());
}

TEST_F(ResetTest, ScopeGuardRestoresGlobalRoutingOnExit) {
  Scope Session;
  {
    ScopeGuard Guard(Session);
    EXPECT_EQ(currentScope(), &Session);
    addCounter("routing.counter");
  }
  EXPECT_EQ(currentScope(), nullptr);
  addCounter("routing.counter");

  // One bump landed in the scope, one in the globals.
  ASSERT_EQ(Session.registry().counterSnapshot().size(), 1u);
  EXPECT_EQ(Session.registry().counterSnapshot()[0].second, 1);
  ASSERT_EQ(Registry::instance().counterSnapshot().size(), 1u);
  EXPECT_EQ(Registry::instance().counterSnapshot()[0].second, 1);
}

} // namespace
