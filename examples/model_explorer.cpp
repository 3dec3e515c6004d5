//===- examples/model_explorer.cpp - Inspect a model's plan -----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `pimflow solve|run` workflow on any zoo model: run the
/// execution-mode and task-size search, report the chosen segments, the
/// device timeline, and the end-to-end result against the GPU baseline.
///
///   model_explorer [model] [policy]
///   model \in {efficientnet-v1-b0, mobilenet-v2, mnasnet-1.0, resnet-50,
///              vgg-16, bert, toy}; policy defaults to PIMFlow.
///
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <cstring>
#include <map>

#include "core/PimFlow.h"
#include "runtime/TimelineDump.h"
#include "models/Zoo.h"
#include "support/Format.h"
#include "support/Table.h"

using namespace pf;

static OffloadPolicy parsePolicy(const char *Name) {
  for (OffloadPolicy P : allPolicies())
    if (std::strcmp(Name, policyName(P)) == 0)
      return P;
  std::fprintf(stderr, "unknown policy '%s', using PIMFlow\n", Name);
  return OffloadPolicy::PimFlow;
}

int main(int Argc, char **Argv) {
  const std::string ModelName = Argc > 1 ? Argv[1] : "mobilenet-v2";
  const OffloadPolicy Policy =
      Argc > 2 ? parsePolicy(Argv[2]) : OffloadPolicy::PimFlow;

  Graph Model = buildModel(ModelName);
  std::printf("model %s: %zu nodes, %zu values\n\n", ModelName.c_str(),
              Model.numNodes(), Model.numValues());

  CompileResult Base = PimFlow(OffloadPolicy::GpuOnly).compileAndRun(Model);
  PimFlow Flow(Policy);
  CompileResult R = Flow.compileAndRun(Model);

  // Segment summary.
  std::map<SegmentMode, int> Counts;
  for (const SegmentPlan &S : R.Plan.Segments)
    ++Counts[S.Mode];
  std::printf("search result (%s):\n", policyName(Policy));
  for (const auto &[Mode, N] : Counts)
    std::printf("  %-9s x%d\n", segmentModeName(Mode), N);

  // Offloaded / parallelized segments in detail.
  Table T;
  T.setHeader({"segment", "mode", "detail", "time (us)"});
  for (const SegmentPlan &S : R.Plan.Segments) {
    if (S.Mode == SegmentMode::GpuNode)
      continue;
    std::string Names;
    for (NodeId Id : S.Nodes) {
      if (!Names.empty())
        Names += '+';
      Names += Model.node(Id).Name;
    }
    std::string Detail;
    if (S.Mode == SegmentMode::MdDp)
      Detail = formatStr("%.0f%% to GPU", S.RatioGpu * 100.0);
    else if (S.Mode == SegmentMode::Pipeline)
      Detail = formatStr("%s, %d stages", pipelinePatternName(S.Pattern),
                         S.Stages);
    T.addRow({Names, segmentModeName(S.Mode), Detail,
              formatStr("%.2f", S.PredictedNs / 1e3)});
  }
  std::printf("\n%s\n", T.render().c_str());

  // Timeline utilization.
  std::printf("end-to-end: %.1f us (GPU baseline %.1f us, %.2fx "
              "speedup)\n",
              R.endToEndNs() / 1e3, Base.endToEndNs() / 1e3,
              Base.endToEndNs() / R.endToEndNs());
  std::printf("device busy: GPU %.1f us (%.0f%%), PIM %.1f us (%.0f%%)\n",
              R.Schedule.GpuBusyNs / 1e3,
              100.0 * R.Schedule.GpuBusyNs / R.endToEndNs(),
              R.Schedule.PimBusyNs / 1e3,
              100.0 * R.Schedule.PimBusyNs / R.endToEndNs());
  std::printf("energy: %.1f uJ (baseline %.1f uJ, %.0f%% saved)\n",
              R.energyJ() * 1e6, Base.energyJ() * 1e6,
              (1.0 - R.energyJ() / Base.energyJ()) * 100.0);
  std::printf("profiling: %zu samples measured, %zu cache hits\n\n",
              Flow.profiler().cacheMisses(), Flow.profiler().cacheHits());
  std::printf("timeline (GPU lane / PIM lane):\n%s",
              renderGantt(R.Transformed, R.Schedule).c_str());
  return 0;
}
