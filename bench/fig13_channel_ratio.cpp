//===- bench/fig13_channel_ratio.cpp - Fig. 13 ------------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Fig. 13: end-to-end time as the GPU/PIM channel split of
/// the 32-channel memory varies, normalized to the GPU baseline. The
/// paper derives the default 16/16 division from this sweep: more PIM
/// channels help until the GPU starves.
///
//===----------------------------------------------------------------------===//

#include <cstdio>

#include "BenchCommon.h"

using namespace pf;
using namespace pf::bench;

void pf::bench::fig13_channel_ratio(const FigureArgs &) {
  printHeader("Figure 13",
              "End-to-end time vs PIM-enabled channel count in a "
              "32-channel memory (normalized to the 32-channel GPU "
              "baseline)");

  const int PimChannels[] = {4, 8, 12, 16, 20, 24, 28};
  const OffloadPolicy Mechanisms[] = {OffloadPolicy::NewtonPlus,
                                      OffloadPolicy::NewtonPlusPlus,
                                      OffloadPolicy::PimFlow};

  for (const std::string Model : {"efficientnet-v1-b0", "resnet-50"}) {
    const double Base =
        cachedRun("f13/" + Model + "/base", Model, OffloadPolicy::GpuOnly)
            .endToEndNs();
    Table T;
    {
      std::vector<std::string> Header = {"mechanism"};
      for (int C : PimChannels)
        Header.push_back(formatStr("%d pim", C));
      T.setHeader(Header);
    }
    for (OffloadPolicy P : Mechanisms) {
      std::vector<std::string> Row = {policyName(P)};
      for (int C : PimChannels) {
        PimFlowOptions O;
        O.PimChannels = C;
        const double Ns =
            cachedRun(formatStr("f13/%s/%d/%d", Model.c_str(),
                                static_cast<int>(P), C),
                      Model, P, O)
                .endToEndNs();
        Row.push_back(norm(Ns, Base));
      }
      T.addRow(Row);
    }
    std::printf("%s:\n%s\n", Model.c_str(), T.render().c_str());
  }
  std::printf("Expected shape: performance improves with PIM channels up "
              "to ~16, then degrades as the GPU loses bandwidth; the "
              "negative side is steeper for Newton+/Newton++ and for "
              "ResNet-50's compute-heavy layers.\n");
}
