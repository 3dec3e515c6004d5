//===- bench/micro.cpp - Deterministic micro proxies ------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic *simulated* proxies of the library's hot paths: PIM trace
/// simulation (channel cycles), command-generation planning, the search
/// DP's prediction and per-candidate profile latency, an engine run, and
/// toy and resnet-18 end-to-end. The numbers are identical on every
/// machine, so tier 1 gates the dump against bench/baselines/ byte for
/// byte and a diff is a real behavior change, never scheduler jitter. The
/// compiler's own wall time is perfbench's job (perfbench/).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "codegen/CommandGenerator.h"
#include "core/PimFlow.h"
#include "models/Zoo.h"
#include "obs/Metrics.h"
#include "obs/Scope.h"
#include "search/SearchEngine.h"

using namespace pf;
using namespace pf::bench;

void pf::bench::micro(const FigureArgs &) {
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
    // identical on every machine and safe to gate exactly.
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
