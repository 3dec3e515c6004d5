//===- bench/ablation_search.cpp - Design-choice ablations --------*- C++ -*-=//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation studies for the design choices DESIGN.md calls out, beyond the
/// paper's own figures:
///
/// (a) Command-scheduling granularity (Fig. 6's three levels as the
///     scheduler's ceiling): G_ACT-only vs +READRES vs +COMP.
/// (b) Split-ratio granularity: the paper's 10% grid vs the future-work
///     auto-tuned 2% refinement (Section 5's footnote measured ~1.13%
///     extra speedup for EfficientNetB0 from a full 2% grid).
/// (c) The memory-layout optimizer (Section 4.3.2), end to end.
///
//===----------------------------------------------------------------------===//

#include <cstdio>

#include "BenchCommon.h"

using namespace pf;
using namespace pf::bench;

void pf::bench::ablation_search(const FigureArgs &) {
  printHeader("Ablation: search & back-end design choices",
              "End-to-end PIMFlow time under degraded design choices, "
              "normalized to the full design");

  // (a) Scheduling granularity.
  std::printf("(a) command-scheduling granularity ceiling "
              "(CONV layers, Newton++):\n");
  Table TG;
  TG.setHeader({"model", "comp (full)", "readres", "g_act only"});
  for (const std::string Model : {"mobilenet-v2", "resnet-50"}) {
    std::map<ScheduleGranularity, double> Ns;
    for (ScheduleGranularity Gr :
         {ScheduleGranularity::Comp, ScheduleGranularity::ReadRes,
          ScheduleGranularity::GAct}) {
      PimFlowOptions O;
      O.MaxGranularity = Gr;
      Ns[Gr] = cachedRun(formatStr("abl-g/%s/%d", Model.c_str(),
                                   static_cast<int>(Gr)),
                         Model, OffloadPolicy::NewtonPlusPlus, O)
                   .ConvLayerNs;
    }
    TG.addRow({Model, "1.000",
               norm(Ns[ScheduleGranularity::ReadRes],
                    Ns[ScheduleGranularity::Comp]),
               norm(Ns[ScheduleGranularity::GAct],
                    Ns[ScheduleGranularity::Comp])});
  }
  std::printf("%s\n", TG.render().c_str());

  // (b) Ratio granularity.
  std::printf("(b) MD-DP split-ratio granularity (PIMFlow-md):\n");
  Table TR;
  TR.setHeader({"model", "10% grid", "+2% auto-tune", "extra speedup"});
  for (const std::string Model :
       {"efficientnet-v1-b0", "mobilenet-v2", "mnasnet-1.0"}) {
    PimFlowOptions Coarse, Fine;
    Fine.AutoTuneRatios = true;
    const double CoarseNs =
        cachedRun("abl-r/" + Model + "/10", Model,
                  OffloadPolicy::PimFlowMd, Coarse)
            .endToEndNs();
    const double FineNs = cachedRun("abl-r/" + Model + "/2", Model,
                                    OffloadPolicy::PimFlowMd, Fine)
                              .endToEndNs();
    TR.addRow({Model, "1.000", norm(FineNs, CoarseNs),
               formatStr("%+.2f%%", (CoarseNs / FineNs - 1.0) * 100.0)});
  }
  std::printf("%s", TR.render().c_str());
  std::printf("(paper footnote: a full 2%% grid bought 1.13%% on "
              "EfficientNetB0 — too little to justify 5x the profiling)\n\n");

  // (c) Memory optimizer.
  std::printf("(c) memory-layout optimizer (PIMFlow-md end-to-end):\n");
  Table TM;
  TM.setHeader({"model", "optimizer on", "optimizer off"});
  for (const std::string &Model : modelNames()) {
    PimFlowOptions On, Off;
    Off.MemoryOptimizer = false;
    const double OnNs = cachedRun("abl-m/" + Model + "/on", Model,
                                  OffloadPolicy::PimFlowMd, On)
                            .endToEndNs();
    const double OffNs = cachedRun("abl-m/" + Model + "/off", Model,
                                   OffloadPolicy::PimFlowMd, Off)
                             .endToEndNs();
    TM.addRow({Model, "1.000", norm(OffNs, OnNs)});
  }
  std::printf("%s\n", TM.render().c_str());
  std::printf("Expected shapes: finer scheduling granularity never hurts "
              "and rescues small-matrix layers; 2%% ratios buy ~1%%; "
              "disabling the layout optimizer erases much of the "
              "splitting gain (\"most splitting attempts futile\").\n");
}
