//===- tests/obs/PinnedTelemetryTest.cpp - pinned telemetry -----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Digests of everything a scoped run records: every counter and gauge,
/// every histogram's count/sum/min/max/quantiles at full precision and
/// every simulated-cycle window, for engine runs of three materialized
/// models, a fault-aware run, a contention run and a cold plan. The
/// digests were recorded while every call site still looked up its
/// metrics once per sample (one histogram and window record per
/// replicated channel, one counter lookup per channel and command
/// family), so resolving metrics once per kernel, plan or run and
/// recording weighted samples must leave every value as it was.
///
/// Wall-derived values are left out: a histogram whose name says `wall`
/// contributes its count only, and a wall-clock window its count only
/// (and nothing but its shape for the cold plan, whose samples can span
/// more than the window on a slow build).
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "core/PimFlow.h"
#include "models/Zoo.h"
#include "obs/Scope.h"
#include "runtime/ExecutionEngine.h"
#include "support/Format.h"
#include "support/StringUtil.h"

using namespace pf;

namespace {

/// Every deterministic value in \p R, one line per metric, name-sorted.
std::string telemetryText(const obs::Registry &R, bool WallWindowCounts) {
  std::string S;
  for (const auto &[Name, V] : R.counterSnapshot())
    S += formatStr("counter %s %lld\n", Name.c_str(),
                   static_cast<long long>(V));
  for (const auto &[Name, V] : R.gaugeSnapshot())
    S += formatStr("gauge %s %.17g\n", Name.c_str(), V);
  for (const auto &[Name, Q] : R.histogramSnapshot()) {
    S += formatStr("histogram %s %lld", Name.c_str(),
                   static_cast<long long>(Q.Count));
    if (Name.find("wall") == std::string::npos)
      S += formatStr(" %.17g %.17g %.17g %.17g %.17g %.17g %.17g", Q.Sum,
                     Q.Min, Q.Max, Q.P50, Q.P90, Q.P99, Q.P999);
    S += '\n';
  }
  for (const auto &[Name, W] : R.windowSnapshot()) {
    S += formatStr("window %s %s %lld %lld", Name.c_str(),
                   obs::tickDomainName(W.Domain),
                   static_cast<long long>(W.BucketWidth),
                   static_cast<long long>(W.SpanTicks));
    if (W.Domain == obs::TickDomain::SimCycles)
      S += formatStr(" %lld %.17g", static_cast<long long>(W.Count), W.Sum);
    else if (WallWindowCounts)
      S += formatStr(" %lld", static_cast<long long>(W.Count));
    S += '\n';
  }
  return S;
}

struct Pin {
  size_t Bytes;
  const char *Digest;
};

/// Compares \p Text with \p P, printing the row to paste on a mismatch.
void expectPinned(const char *What, const std::string &Text, const Pin &P) {
  const std::string Digest = fnv1a64Hex(Text);
  EXPECT_TRUE(Text.size() == P.Bytes && Digest == P.Digest)
      << What << " telemetry drifted; now {" << Text.size() << "u, \""
      << Digest << "\"}:\n"
      << Text;
}

/// \p Model planned and materialized under PIMFlow on 16 of 32 channels.
struct Materialized {
  SystemConfig Config;
  Graph G;
};

Materialized materialize(const std::string &Model) {
  const Graph M = buildModel(Model);
  PimFlowOptions O;
  O.PimChannels = 16;
  PimFlow Flow(OffloadPolicy::PimFlow, O);
  return {Flow.config(), Flow.materialize(M, Flow.plan(M))};
}

/// The telemetry of one scoped engine run of \p M under \p Config.
std::string engineRun(const Materialized &M, const SystemConfig &Config,
                      const FaultModel *Faults = nullptr) {
  obs::Scope Run;
  {
    obs::ScopeGuard Guard(Run);
    DiagnosticEngine DE;
    const RetryPolicy Retry;
    EXPECT_TRUE(ExecutionEngine(Config).tryExecute(M.G, DE, Faults,
                                                   Faults ? &Retry : nullptr))
        << DE.render();
  }
  return telemetryText(Run.registry(), /*WallWindowCounts=*/true);
}

} // namespace

TEST(PinnedTelemetry, EngineRunsOfMaterializedModels) {
  const std::pair<const char *, Pin> Pins[] = {
      {"toy", {2566u, "0f1b576503c2d7c6"}},
      {"mobilenet-v2", {2686u, "4672066030945351"}},
      {"resnet-50", {2723u, "83a91a7f26742494"}},
  };
  for (const auto &[Model, P] : Pins) {
    const Materialized M = materialize(Model);
    expectPinned(Model, engineRun(M, M.Config), P);
  }
}

TEST(PinnedTelemetry, FaultAwareEngineRun) {
  const Materialized M = materialize("mobilenet-v2");
  DiagnosticEngine DE;
  const std::optional<FaultModel> Faults = FaultModel::parse("slow:2:4.0", DE);
  ASSERT_TRUE(Faults) << DE.render();
  expectPinned("slow:2:4.0", engineRun(M, M.Config, &*Faults),
               {2731u, "977102e5975d3f99"});
}

TEST(PinnedTelemetry, ContentionEngineRun) {
  const Materialized M = materialize("mobilenet-v2");
  SystemConfig Config = M.Config;
  Config.ModelContention = true;
  // Recorded per sample like the others, except that the first pass no
  // longer counts the handoffs again: `engine.cross_device_handoffs` read
  // 178 there, twice the 89 of every contention-free run of this graph.
  expectPinned("contention", engineRun(M, Config),
               {2726u, "dd465986eeaa512c"});
}

TEST(PinnedTelemetry, ColdPlan) {
  const Graph M = buildModel("mobilenet-v2");
  PimFlowOptions O;
  O.PimChannels = 16;
  obs::Scope Run;
  {
    obs::ScopeGuard Guard(Run);
    PimFlow(OffloadPolicy::PimFlow, O).plan(M);
  }
  expectPinned("cold plan",
               telemetryText(Run.registry(), /*WallWindowCounts=*/false),
               {3279u, "c3c8b25da2394779"});
}
