//===- bench/fig09_main.cpp - Fig. 9 ----------------------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Fig. 9, the paper's main result: (1) execution time of all
/// PIM-candidate CONV layers and (2) end-to-end inference time of the five
/// CNN models under every offloading mechanism, normalized to the GPU
/// baseline. Pass --contention to include the Section-7 memory-controller
/// contention model. Positional arguments select the models to sweep
/// (default: the paper's five). Tier 1 gates the default sweep and
/// `toy resnet-18` against bench/baselines/ byte for byte.
///
//===----------------------------------------------------------------------===//

#include <cstdio>

#include "BenchCommon.h"

using namespace pf;
using namespace pf::bench;

void pf::bench::fig09_main(const FigureArgs &Args) {
  PimFlowOptions Options;
  Options.ModelContention = Args.has("--contention");
  const std::vector<std::string> Models =
      Args.Models.empty() ? modelNames() : Args.Models;

  printHeader("Figure 9",
              "CONV-layer and end-to-end inference time per offloading "
              "mechanism, normalized to the GPU baseline (lower is "
              "better)");

  Table Conv, E2e;
  {
    std::vector<std::string> Header = {"model"};
    for (OffloadPolicy P : allPolicies())
      Header.push_back(policyName(P));
    Conv.setHeader(Header);
    E2e.setHeader(Header);
  }

  std::vector<double> FlowE2e, FlowConv;
  for (const std::string &Name : Models) {
    double BaseConv = 0.0, BaseE2e = 0.0;
    std::vector<std::string> ConvRow = {Name}, E2eRow = {Name};
    for (OffloadPolicy P : allPolicies()) {
      const CompileResult &R =
          cachedRun(formatStr("f9/%s/%d/%d", Name.c_str(),
                              static_cast<int>(P),
                              Options.ModelContention ? 1 : 0),
                    Name, P, Options);
      if (P == OffloadPolicy::GpuOnly) {
        BaseConv = R.ConvLayerNs;
        BaseE2e = R.endToEndNs();
      }
      ConvRow.push_back(norm(R.ConvLayerNs, BaseConv));
      E2eRow.push_back(norm(R.endToEndNs(), BaseE2e));
      if (P == OffloadPolicy::PimFlow) {
        FlowConv.push_back(R.ConvLayerNs / BaseConv);
        FlowE2e.push_back(R.endToEndNs() / BaseE2e);
      }
    }
    Conv.addRow(ConvRow);
    E2e.addRow(E2eRow);
  }

  std::printf("(1) PIM-candidate CONV layers:\n%s\n",
              Conv.render().c_str());
  std::printf("(2) End-to-end inference:\n%s\n", E2e.render().c_str());
  std::printf("PIMFlow averages: CONV %.0f%% speedup, end-to-end %.0f%% "
              "speedup (paper: 30%% CONV / 34%% end-to-end on average, up "
              "to 82%%).\n",
              (1.0 / mean(FlowConv) - 1.0) * 100.0,
              (1.0 / mean(FlowE2e) - 1.0) * 100.0);
}
