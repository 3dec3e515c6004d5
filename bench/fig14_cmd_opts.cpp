//===- bench/fig14_cmd_opts.cpp - Fig. 14 -----------------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Fig. 14: the isolated impact of the two PIM-command
/// optimizations — GWRITE latency hiding and multiple global buffers —
/// on the PIM-candidate CONV layers, relative to Newton+. Paper: ~9% from
/// hiding, ~14% from buffers, ~22% combined, composing independently.
/// Pass --no-memopt to additionally show the memory-layout optimizer's
/// contribution (Section 4.3.2).
///
//===----------------------------------------------------------------------===//

#include <cstdio>

#include "BenchCommon.h"

using namespace pf;
using namespace pf::bench;

void pf::bench::fig14_cmd_opts(const FigureArgs &Args) {
  printHeader("Figure 14",
              "PIM command-optimization ablation: CONV-layer time "
              "normalized to Newton+ (1 buffer, no hiding)");

  struct Variant {
    const char *Name;
    int Buffers;
    bool Hiding;
  };
  const Variant Variants[] = {
      {"Newton+ (neither)", 1, false},
      {"+GWRITE hiding", 1, true},
      {"+multi-buffer (4)", 4, false},
      {"+both (Newton++)", 4, true},
  };

  Table T;
  {
    std::vector<std::string> Header = {"model"};
    for (const Variant &V : Variants)
      Header.push_back(V.Name);
    T.setHeader(Header);
  }

  std::map<const char *, std::vector<double>> Ratios;
  for (const std::string &Name : modelNames()) {
    double Base = 0.0;
    std::vector<std::string> Row = {Name};
    for (const Variant &V : Variants) {
      PimFlowOptions O;
      O.NumGlobalBuffers = V.Buffers;
      O.GwriteLatencyHiding = V.Hiding;
      const double ConvNs =
          cachedRun(formatStr("f14/%s/%d/%d", Name.c_str(), V.Buffers,
                              V.Hiding ? 1 : 0),
                    Name, OffloadPolicy::NewtonPlus, O)
              .ConvLayerNs;
      if (V.Buffers == 1 && !V.Hiding)
        Base = ConvNs;
      Row.push_back(norm(ConvNs, Base));
      Ratios[V.Name].push_back(ConvNs / Base);
    }
    T.addRow(Row);
  }
  std::printf("%s\n", T.render().c_str());
  for (const Variant &V : Variants)
    std::printf("%-20s avg speedup over Newton+: %.0f%%\n", V.Name,
                (1.0 / mean(Ratios[V.Name]) - 1.0) * 100.0);
  std::printf("\nExpected shape: each optimization helps on its own and "
              "they compose without interfering (paper: 9%% + 14%% -> "
              "22%%).\n");

  if (Args.has("--no-memopt")) {
    std::printf("\nMemory-layout optimizer ablation (PIMFlow-md "
                "end-to-end, normalized to optimizer ON):\n");
    Table M;
    M.setHeader({"model", "memopt on", "memopt off"});
    for (const std::string &Name : modelNames()) {
      PimFlowOptions On, Off;
      Off.MemoryOptimizer = false;
      const double TOn = cachedRun("f14m/" + Name + "/on", Name,
                                   OffloadPolicy::PimFlowMd, On)
                             .endToEndNs();
      const double TOff = cachedRun("f14m/" + Name + "/off", Name,
                                    OffloadPolicy::PimFlowMd, Off)
                              .endToEndNs();
      M.addRow({Name, "1.000", norm(TOff, TOn)});
    }
    std::printf("%s\n", M.render().c_str());
  }
}
