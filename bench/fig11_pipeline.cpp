//===- bench/fig11_pipeline.cpp - Fig. 11 -----------------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Fig. 11: the layerwise comparison of pipelining candidate
/// subgraphs — each matched pattern instance executed (a) with its nodes in
/// MD-DP/best-per-node mode and (b) pipelined — across the mobile CNNs.
/// The paper's finding: the Type 1 (1x1-DW) pattern is the one that
/// outperforms MD-DP.
///
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <map>

#include "BenchCommon.h"
#include "search/Profiler.h"
#include "search/SearchEngine.h"
#include "transform/PatternMatch.h"

using namespace pf;
using namespace pf::bench;

void pf::bench::fig11_pipeline(const FigureArgs &) {
  printHeader("Figure 11",
              "Pipelining candidate subgraphs: per-node-best (MD-DP) vs "
              "pipelined time, by pattern type");

  Profiler P(SystemConfig::dual());
  SearchOptions MdOnly;
  MdOnly.AllowPipeline = false;

  struct Agg {
    double MdNs = 0.0;
    double PipeNs = 0.0;
    int Count = 0;
    int Wins = 0;
  };
  std::map<PipelinePattern, Agg> ByPattern;

  for (const std::string Model :
       {"efficientnet-v1-b0", "mobilenet-v2", "mnasnet-1.0"}) {
    Graph G = buildModel(Model);
    for (const PipelineCandidate &Cand : findPipelineCandidates(G)) {
      // Per-node best over {gpu, pim, md-dp ratios} for each chain node.
      double MdNs = 0.0;
      for (NodeId Id : Cand.Chain) {
        double Best = P.gpuNodeNs(G, Id);
        if (isPimCandidate(G.node(Id))) {
          Best = std::min(Best, P.pimNodeNs(G, Id));
          for (double R = 0.1; R < 1.0 - 1e-9; R += 0.1)
            Best = std::min(Best, P.mdDpNs(G, Id, R));
        }
        MdNs += Best;
      }
      const double PipeNs = P.pipelineNs(G, Cand.Chain, 2);
      if (PipeNs < 0.0)
        continue;
      Agg &A = ByPattern[Cand.Pattern];
      A.MdNs += MdNs;
      A.PipeNs += PipeNs;
      A.Count += 1;
      A.Wins += PipeNs < MdNs;
    }
  }

  Table T;
  T.setHeader({"pattern", "instances", "pipeline wins", "md-dp (us)",
               "pipelined (us)", "pipe/md-dp"});
  for (const auto &[Pattern, A] : ByPattern)
    T.addRow({pipelinePatternName(Pattern), formatStr("%d", A.Count),
              formatStr("%d", A.Wins), formatStr("%.1f", A.MdNs / 1e3),
              formatStr("%.1f", A.PipeNs / 1e3),
              norm(A.PipeNs, A.MdNs)});
  std::printf("%s\n", T.render().c_str());
  std::printf("Expected shape: Type 1 (1x1-dw) pipelines effectively "
              "(PIM 1x1 stages overlap GPU DW stages); patterns whose "
              "prologue/epilogue stages are expensive gain less or "
              "lose.\n");
}
