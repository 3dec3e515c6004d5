//===- core/Report.cpp - Compilation & execution reporting ------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Report.h"

#include "codegen/PimKernelSpec.h"
#include "codegen/WeightPlacement.h"
#include "runtime/MemoryPlanner.h"
#include "runtime/TimelineDump.h"
#include "support/Format.h"
#include "support/Table.h"

using namespace pf;

ExecutionStats pf::computeStats(const CompileResult &R) {
  ExecutionStats S;
  const Graph &G = R.Transformed;

  for (const NodeSchedule &Sched : R.Schedule.Nodes) {
    const Node &N = G.node(Sched.Id);
    if (Sched.durationNs() <= 0.0) {
      ++S.FusedOrFreeNodes;
      continue;
    }
    if (Sched.Dev == Device::Pim) {
      ++S.PimKernels;
      S.PimWeightBytes += lowerToPimSpec(G, Sched.Id).weightBytes();
    } else {
      ++S.GpuKernels;
      for (ValueId In : N.Inputs)
        if (G.value(In).IsParam)
          S.GpuWeightBytes += G.value(In).byteCount();
    }
  }
  for (const PimKernelRecord &K : R.Schedule.Kernels) {
    S.PimGwriteBursts += K.GwriteBursts;
    S.PimGActs += K.GActs;
    S.PimCompColumns += K.CompColumns;
    S.PimReadRes += K.ReadResCmds;
  }
  if (R.Schedule.TotalNs > 0.0) {
    S.GpuBusyFraction = R.Schedule.GpuBusyNs / R.Schedule.TotalNs;
    S.PimBusyFraction = R.Schedule.PimBusyNs / R.Schedule.TotalNs;
  }
  return S;
}

std::string pf::renderReport(const CompileResult &R) {
  const ExecutionStats S = computeStats(R);
  std::string Out;

  Out += formatStr("== %s report: %s ==\n\n", policyName(R.Policy),
                   R.Transformed.name().c_str());
  Out += formatStr("end-to-end %.2f us, energy %.2f uJ\n",
                   R.endToEndNs() / 1e3, R.energyJ() * 1e6);
  Out += formatStr("PIM-candidate CONV layers %.2f us, FC layers %.2f us\n",
                   R.ConvLayerNs / 1e3, R.FcLayerNs / 1e3);

  // Segment-mode summary.
  int Counts[4] = {};
  for (const SegmentPlan &Seg : R.Plan.Segments)
    ++Counts[static_cast<int>(Seg.Mode)];
  Out += formatStr("segments: %d gpu, %d full-pim, %d md-dp, %d "
                   "pipelined\n\n",
                   Counts[0], Counts[1], Counts[2], Counts[3]);

  Table T;
  T.setHeader({"statistic", "value"});
  T.addRow({"GPU kernels", formatStr("%d", S.GpuKernels)});
  T.addRow({"PIM kernels", formatStr("%d", S.PimKernels)});
  T.addRow({"fused / free nodes", formatStr("%d", S.FusedOrFreeNodes)});
  T.addRow({"GPU busy", formatStr("%.0f%%", S.GpuBusyFraction * 100.0)});
  T.addRow({"PIM busy", formatStr("%.0f%%", S.PimBusyFraction * 100.0)});
  T.addRow({"GWRITE bursts",
            formatStr("%lld", (long long)S.PimGwriteBursts)});
  T.addRow({"G_ACTs", formatStr("%lld", (long long)S.PimGActs)});
  T.addRow({"COMP columns",
            formatStr("%lld", (long long)S.PimCompColumns)});
  T.addRow({"READRES", formatStr("%lld", (long long)S.PimReadRes)});
  T.addRow({"weights in PIM channels",
            formatStr("%.2f MB", S.PimWeightBytes / 1048576.0)});
  T.addRow({"weights in GPU channels",
            formatStr("%.2f MB", S.GpuWeightBytes / 1048576.0)});
  const MemoryPlan MP = planMemory(R.Transformed, R.Schedule,
                                   MemoryOptimizer(R.Config.MemoryOptimizer));
  T.addRow({"peak activations",
            formatStr("%.2f MB", MP.PeakActivationBytes / 1048576.0)});
  T.addRow({"aliased (zero-copy) views",
            formatStr("%.2f MB", MP.AliasedBytes / 1048576.0)});
  if (R.Config.hasPim()) {
    const PlacementPlan WP =
        placeWeights(R.Transformed, R.Schedule.Kernels, R.Config.Pim);
    T.addRow({"PIM cell-array rows/bank",
              formatStr("%lld (%.2f%% of capacity)",
                        (long long)WP.RowsPerBankUsed,
                        WP.utilization() * 100.0)});
  }
  Out += T.render();

  Out += "\ntimeline:\n";
  Out += renderGantt(R.Transformed, R.Schedule);
  return Out;
}
