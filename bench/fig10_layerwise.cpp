//===- bench/fig10_layerwise.cpp - Fig. 10 ----------------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Fig. 10: the layerwise performance breakdown for nodes
/// executed in the MD-DP mode — per candidate layer, the GPU time, the PIM
/// time, the chosen split ratio, and the MD-DP time, normalized to the GPU
/// baseline. Pass one or more model names (default mobilenet-v2).
///
//===----------------------------------------------------------------------===//

#include <cstdio>

#include "BenchCommon.h"
#include "codegen/PimKernelSpec.h"

using namespace pf;
using namespace pf::bench;

namespace {

void runModel(const std::string &Model) {
  printHeader("Figure 10",
              formatStr("Layerwise MD-DP breakdown for %s (times "
                        "normalized to the layer's GPU-baseline time)",
                        Model.c_str())
                  .c_str());

  const CompileResult &R =
      cachedRun("f10/" + Model, Model, OffloadPolicy::PimFlowMd);
  Graph G = buildModel(Model);

  Table T;
  T.setHeader({"layer (MxKxV)", "gpu", "pim", "md-dp", "ratio->gpu"});
  int Shown = 0;
  for (const SearchDecision &D : R.Plan.Decisions) {
    if (!D.pimCandidate() || G.node(D.Id).Kind != OpKind::Conv2d)
      continue;
    const PimKernelSpec S = lowerToPimSpec(G, D.Id);
    const CandidateOption &Best = D.bestMdDp();
    T.addRow({formatStr("%lldx%lldx%lld", (long long)S.M, (long long)S.K,
                        (long long)S.NumVectors),
              "1.000", norm(D.pimNs(), D.gpuOnlyNs()),
              norm(Best.Ns, D.gpuOnlyNs()),
              formatStr("%.0f%%", Best.RatioGpu * 100.0)});
    ++Shown;
  }
  std::printf("%s\n(%d candidate CONV layers)\n", T.render().c_str(),
              Shown);
}

} // namespace

void pf::bench::fig10_layerwise(const FigureArgs &Args) {
  if (Args.Models.empty())
    runModel("mobilenet-v2");
  for (const std::string &Model : Args.Models)
    runModel(Model);
  std::printf("Expected shape: layers whose PIM time is within ~2x of GPU "
              "split at interior ratios and beat both devices; layers "
              "where PIM dominates offload fully (ratio 0%%).\n");
}
