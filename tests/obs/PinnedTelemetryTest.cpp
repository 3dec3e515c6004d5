//===- tests/obs/PinnedTelemetryTest.cpp - pinned telemetry -----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Digests of everything a scoped run records: every counter and every
/// histogram's count/sum/min/max/quantiles at full precision, for engine
/// runs of three materialized models, a fault-aware run, a contention run
/// and a cold plan. The values were first pinned while every call site
/// still looked up its metrics once per sample (one histogram record per
/// replicated channel, one counter lookup per channel and command
/// family), so resolving metrics once per kernel, plan or run and
/// recording weighted samples must leave every value as it was.
///
/// Wall-derived values are left out: a histogram whose name says `wall`
/// contributes its count only.
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
std::string telemetryText(const obs::Registry &R) {
  std::string S;
  for (const auto &[Name, V] : R.counterSnapshot())
    S += formatStr("counter %s %lld\n", Name.c_str(),
                   static_cast<long long>(V));
  for (const auto &[Name, Q] : R.histogramSnapshot()) {
    S += formatStr("histogram %s %lld", Name.c_str(),
                   static_cast<long long>(Q.Count));
    if (Name.find("wall") == std::string::npos)
      S += formatStr(" %.17g %.17g %.17g %.17g %.17g %.17g %.17g", Q.Sum,
                     Q.Min, Q.Max, Q.P50, Q.P90, Q.P99, Q.P999);
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
  return telemetryText(Run.registry());
}

} // namespace

TEST(PinnedTelemetry, EngineRunsOfMaterializedModels) {
  const std::pair<const char *, Pin> Pins[] = {
      {"toy", {2448u, "3fa5c7ada53d88b3"}},
      {"mobilenet-v2", {2564u, "5f76fe0eb8afded5"}},
      {"resnet-50", {2601u, "7e462c3edb25bd5c"}},
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
               {2608u, "6ad0b527ad723288"});
}

TEST(PinnedTelemetry, ContentionEngineRun) {
  const Materialized M = materialize("mobilenet-v2");
  SystemConfig Config = M.Config;
  Config.ModelContention = true;
  // Recorded per sample like the others, except that the first pass no
  // longer counts the handoffs again: `engine.cross_device_handoffs` read
  // 178 there, twice the 89 of every contention-free run of this graph.
  expectPinned("contention", engineRun(M, Config),
               {2604u, "da14bb1b18405238"});
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
  // The profiler runs the engine for pipeline samples only and prices the
  // rest, so the engine.* counters, engine.node_duration_ns and the
  // per-channel pim command mix count those 32 runs; the codegen.*,
  // pim.sim.* and profiler.* values count every sample.
  expectPinned("cold plan", telemetryText(Run.registry()),
               {3117u, "85a2f80163077df7"});
}
