//===- bench/fig03_channels.cpp - Fig. 3 ------------------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Fig. 3: GPU-only model inference time as the number of
/// memory channels shrinks, normalized to 24 channels (the paper's
/// preliminary study motivating the GPU/PIM channel split: compute-
/// intensive models tolerate losing half the channels).
///
//===----------------------------------------------------------------------===//

#include <cstdio>

#include "BenchCommon.h"

using namespace pf;
using namespace pf::bench;

void pf::bench::fig03_channels(const FigureArgs &) {
  printHeader("Figure 3",
              "GPU-only inference time vs memory channel count "
              "(normalized to 24 channels)");

  const int Channels[] = {8, 12, 16, 20, 24, 28, 32};

  Table T;
  {
    std::vector<std::string> Header = {"model"};
    for (int C : Channels)
      Header.push_back(formatStr("%dch", C));
    T.setHeader(Header);
  }

  for (const std::string &Name : modelNames()) {
    std::map<int, double> Ns;
    for (int C : Channels) {
      PimFlowOptions O;
      O.TotalChannels = C;
      Ns[C] = cachedRun(formatStr("f3/%s/%d", Name.c_str(), C), Name,
                        OffloadPolicy::GpuOnly, O)
                  .endToEndNs();
    }
    std::vector<std::string> Row = {Name};
    for (int C : Channels)
      Row.push_back(norm(Ns[C], Ns[24]));
    T.addRow(Row);
  }

  std::printf("%s\n", T.render().c_str());
  std::printf("Expected shape: compute-bound models (ResNet-50, VGG-16 "
              "convs) degrade little down to ~16 channels; bandwidth-"
              "hungry models degrade more below that.\n");
}
