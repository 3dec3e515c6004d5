//===- bench/fig12_energy.cpp - Fig. 12 -------------------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Fig. 12: energy consumption per model per offloading
/// mechanism, normalized to the GPU baseline. Paper: Newton++ uses 18%
/// and PIMFlow 26% less energy on average, with the compute-heavy models'
/// gains limited by GPU static power.
///
//===----------------------------------------------------------------------===//

#include <cstdio>

#include "BenchCommon.h"

using namespace pf;
using namespace pf::bench;

void pf::bench::fig12_energy(const FigureArgs &) {
  printHeader("Figure 12",
              "Inference energy per mechanism, normalized to the GPU "
              "baseline (lower is better)");

  const OffloadPolicy Shown[] = {OffloadPolicy::NewtonPlus,
                                 OffloadPolicy::NewtonPlusPlus,
                                 OffloadPolicy::PimFlow};

  Table T;
  {
    std::vector<std::string> Header = {"model"};
    for (OffloadPolicy P : Shown)
      Header.push_back(policyName(P));
    T.setHeader(Header);
  }

  std::map<OffloadPolicy, std::vector<double>> Ratios;
  for (const std::string &Name : modelNames()) {
    const double Base = cachedRun("f12/" + Name + "/base", Name,
                                  OffloadPolicy::GpuOnly)
                            .energyJ();
    std::vector<std::string> Row = {Name};
    for (OffloadPolicy P : Shown) {
      const double E =
          cachedRun(formatStr("f12/%s/%d", Name.c_str(),
                              static_cast<int>(P)),
                    Name, P)
              .energyJ();
      Row.push_back(norm(E, Base));
      Ratios[P].push_back(E / Base);
    }
    T.addRow(Row);
  }

  std::printf("%s\n", T.render().c_str());
  for (OffloadPolicy P : Shown)
    std::printf("%-10s average energy vs baseline: %.0f%%\n",
                policyName(P), mean(Ratios[P]) * 100.0);
  std::printf("\nExpected shape: Newton++ and PIMFlow below the baseline "
              "(paper: -18%% and -26%% average); models with small "
              "speedups see limited gains from GPU static power.\n");
}
