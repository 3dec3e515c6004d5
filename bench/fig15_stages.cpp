//===- bench/fig15_stages.cpp - Fig. 15 -------------------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Fig. 15: pipeline stage-count sensitivity. More stages
/// shrink the prologue/epilogue but add kernel-launch and synchronization
/// overheads; the paper finds two stages optimal.
///
//===----------------------------------------------------------------------===//

#include <cstdio>

#include "BenchCommon.h"

using namespace pf;
using namespace pf::bench;

void pf::bench::fig15_stages(const FigureArgs &) {
  printHeader("Figure 15",
              "PIMFlow-pl end-to-end time vs pipeline stage count "
              "(normalized to 2 stages)");

  const int Stages[] = {2, 3, 4, 5};
  Table T;
  {
    std::vector<std::string> Header = {"model"};
    for (int S : Stages)
      Header.push_back(formatStr("%d stages", S));
    T.setHeader(Header);
  }

  for (const std::string Model :
       {"efficientnet-v1-b0", "mobilenet-v2", "mnasnet-1.0"}) {
    std::map<int, double> Ns;
    for (int S : Stages) {
      PimFlowOptions O;
      O.PipelineStages = S;
      Ns[S] = cachedRun(formatStr("f15/%s/%d", Model.c_str(), S), Model,
                        OffloadPolicy::PimFlowPl, O)
                  .endToEndNs();
    }
    std::vector<std::string> Row = {Model};
    for (int S : Stages)
      Row.push_back(norm(Ns[S], Ns[2]));
    T.addRow(Row);
  }
  std::printf("%s\n", T.render().c_str());
  std::printf("Expected shape: two stages are optimal; deeper pipelines "
              "pay more in launch/sync overhead than the extra overlap "
              "returns.\n");
}
