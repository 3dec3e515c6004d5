//===- bench/bench_micro.cpp - google-benchmark micro suite -----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks for the library's hot paths: PIM trace
/// simulation, command-generation planning, graph transforms, the search
/// DP, and the reference interpreter. These track the compiler's own
/// performance (the Section-7 compilation-overhead discussion), not the
/// simulated hardware.
///
/// Besides the wall-clock benchmarks, the binary records deterministic
/// *simulated* proxies (channel cycles, plan/search/engine times, toy and
/// resnet-18 end-to-end) through the bench harness, so its
/// PIMFLOW_BENCH_JSON dump is machine-independent and can be gated by
/// pf_perf_diff. Pass --no-wall to skip the wall-clock runs (CI).
///
//===----------------------------------------------------------------------===//

#include <cstring>

#include <benchmark/benchmark.h>

#include "BenchCommon.h"

#include "codegen/CommandGenerator.h"
#include "core/PimFlow.h"
#include "ir/Builder.h"
#include "models/Zoo.h"
#include "obs/Metrics.h"
#include "obs/Scope.h"
#include "runtime/Interpreter.h"
#include "search/SearchEngine.h"
#include "transform/MdDpSplitPass.h"

using namespace pf;

static void BM_PimChannelSimulation(benchmark::State &State) {
  PimConfig C = PimConfig::newtonPlusPlus();
  PimSimulator Sim(C);
  ChannelTrace Trace;
  std::vector<PimCommand> Pattern;
  for (int T = 0; T < 8; ++T) {
    Pattern.push_back(PimCommand::gwrite(32, 4));
    Pattern.push_back(PimCommand::gact(4));
    Pattern.push_back(PimCommand::comp(512));
  }
  Pattern.push_back(PimCommand::readRes(64));
  Trace.Blocks.push_back(CommandBlock{Pattern, 1000});
  for (auto _ : State)
    benchmark::DoNotOptimize(Sim.simulateChannel(Trace));
}
BENCHMARK(BM_PimChannelSimulation);

static void BM_CommandGeneratorPlan(benchmark::State &State) {
  PimCommandGenerator Gen(PimConfig::newtonPlusPlus(), CodegenOptions{});
  PimKernelSpec Spec;
  Spec.M = 144;
  Spec.K = 24;
  Spec.NumVectors = 3136;
  for (auto _ : State)
    benchmark::DoNotOptimize(Gen.plan(Spec).Ns);
}
BENCHMARK(BM_CommandGeneratorPlan);

static void BM_BuildMobileNetV2(benchmark::State &State) {
  for (auto _ : State)
    benchmark::DoNotOptimize(buildMobileNetV2().numNodes());
}
BENCHMARK(BM_BuildMobileNetV2);

static void BM_TopoSortResNet50(benchmark::State &State) {
  Graph G = buildResNet50();
  for (auto _ : State)
    benchmark::DoNotOptimize(G.topoOrder().size());
}
BENCHMARK(BM_TopoSortResNet50);

static void BM_MdDpSplitPass(benchmark::State &State) {
  const Graph Template = [] {
    GraphBuilder B("t");
    ValueId X = B.input("x", TensorShape{1, 56, 56, 64});
    B.output(B.conv2d(X, 128, 3, 1, 1));
    return B.take();
  }();
  for (auto _ : State) {
    Graph G = Template;
    benchmark::DoNotOptimize(
        applyMdDpSplit(G, G.topoOrder().front(), 0.5).has_value());
  }
}
BENCHMARK(BM_MdDpSplitPass);

static void BM_SearchMobileNetV2(benchmark::State &State) {
  // Full Algorithm-1 search including profiling (cold cache each time):
  // the dominant compilation cost of Section 7.
  const Graph G = buildMobileNetV2();
  for (auto _ : State) {
    Profiler P(SystemConfig::dual());
    SearchEngine S(P, SearchOptions{});
    benchmark::DoNotOptimize(S.search(G).PredictedNs);
  }
}
BENCHMARK(BM_SearchMobileNetV2)->Unit(benchmark::kMillisecond);

static void BM_InterpreterToy(benchmark::State &State) {
  const Graph G = buildToy();
  const Tensor In =
      Interpreter::randomInput(G.value(G.graphInputs()[0]).Shape, 1);
  Interpreter I(G);
  for (auto _ : State)
    benchmark::DoNotOptimize(I.run({In}).front().at(0));
}
BENCHMARK(BM_InterpreterToy)->Unit(benchmark::kMillisecond);

static void BM_ExecutionEngineResNet50(benchmark::State &State) {
  const Graph G = buildResNet50();
  ExecutionEngine E(SystemConfig::gpuOnly());
  for (auto _ : State)
    benchmark::DoNotOptimize(E.execute(G).TotalNs);
}
BENCHMARK(BM_ExecutionEngineResNet50)->Unit(benchmark::kMillisecond);

namespace {

/// Records the deterministic (simulated, not wall-clock) proxies of the
/// hot paths above: the numbers are identical on every machine, so the
/// baseline diff gates real behavior changes, never scheduler jitter.
void recordDeterministicProxies() {
  using namespace pf::bench;
  printHeader("Micro", "Deterministic micro proxies (simulated units)");

  {
    PimConfig C = PimConfig::newtonPlusPlus();
    PimSimulator Sim(C);
    ChannelTrace Trace;
    std::vector<PimCommand> Pattern;
    for (int T = 0; T < 8; ++T) {
      Pattern.push_back(PimCommand::gwrite(32, 4));
      Pattern.push_back(PimCommand::gact(4));
      Pattern.push_back(PimCommand::comp(512));
    }
    Pattern.push_back(PimCommand::readRes(64));
    Trace.Blocks.push_back(CommandBlock{Pattern, 1000});
    BenchResult R;
    R.Figure = "Micro";
    R.Key = "micro/sim_channel_cycles";
    R.EndToEndNs = static_cast<double>(Sim.simulateChannel(Trace));
    recordResult(R);
  }
  {
    PimCommandGenerator Gen(PimConfig::newtonPlusPlus(), CodegenOptions{});
    PimKernelSpec Spec;
    Spec.M = 144;
    Spec.K = 24;
    Spec.NumVectors = 3136;
    BenchResult R;
    R.Figure = "Micro";
    R.Key = "micro/plan_ns";
    R.EndToEndNs = Gen.plan(Spec).Ns;
    recordResult(R);
  }
  {
    const Graph G = buildMobileNetV2();
    Profiler P(SystemConfig::dual());
    SearchEngine S(P, SearchOptions{});
    BenchResult R;
    R.Figure = "Micro";
    R.Key = "micro/search_mobilenet_predicted_ns";
    R.Model = "mobilenet-v2";
    R.EndToEndNs = S.search(G).PredictedNs;
    recordResult(R);
  }
  {
    const Graph G = buildResNet50();
    ExecutionEngine E(SystemConfig::gpuOnly());
    BenchResult R;
    R.Figure = "Micro";
    R.Key = "micro/engine_resnet50_total_ns";
    R.Model = "resnet-50";
    R.EndToEndNs = E.execute(G).TotalNs;
    recordResult(R);
  }
  {
    // Per-candidate profile-latency distribution: run the search with the
    // registry on and report the bounded-error p50/p99 of
    // profiler.profile_sim_ns. Simulated nanoseconds, so the quantiles are
    // identical on every machine and safe to gate in tier 5.
    //
    // A private scope instead of toggling and resetting the process
    // globals, which would also wipe whatever earlier iterations had
    // accumulated there. The search runs on this thread, so the guard
    // covers every record.
    obs::Scope Scoped;
    obs::ScopeGuard Guard(Scoped);
    const Graph G = buildMobileNetV2();
    Profiler P(SystemConfig::dual());
    SearchEngine S(P, SearchOptions{});
    (void)S.search(G);
    obs::QuantileStats Q;
    for (const auto &[Name, Stats] : Scoped.registry().histogramSnapshot())
      if (Name == "profiler.profile_sim_ns")
        Q = Stats;
    BenchResult R;
    R.Figure = "Micro";
    R.Model = "mobilenet-v2";
    R.Key = "micro/profile_ns_p50";
    R.EndToEndNs = Q.P50;
    recordResult(R);
    R.Key = "micro/profile_ns_p99";
    R.EndToEndNs = Q.P99;
    recordResult(R);
  }
  // Whole-flow proxies on a small and a mid-size model.
  cachedRun("micro/toy", "toy", OffloadPolicy::PimFlow);
  cachedRun("micro/resnet-18", "resnet-18", OffloadPolicy::PimFlow);
}

} // namespace

int main(int Argc, char **Argv) {
  bool NoWall = false;
  // Strip --no-wall before google-benchmark sees (and rejects) it.
  int OutArgc = 1;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--no-wall") == 0)
      NoWall = true;
    else
      Argv[OutArgc++] = Argv[I];
  }
  Argc = OutArgc;

  recordDeterministicProxies();
  if (NoWall)
    return 0;
  benchmark::Initialize(&Argc, Argv);
  if (benchmark::ReportUnrecognizedArguments(Argc, Argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
