//===- bench/extra_models.cpp - Artifact A.7 study --------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The artifact's "Experiment Customization": runs PIMFlow on CNN models
/// the paper did not evaluate — AlexNet, SqueezeNet 1.1, ResNet-18/34,
/// DenseNet-121 — testing that the compiler generalizes beyond the tuned
/// five. SqueezeNet is the interesting case: it is 1x1-dominated like the
/// mobile nets but *already has* inter-node parallelism in its fire
/// modules.
///
//===----------------------------------------------------------------------===//

#include <cstdio>

#include "BenchCommon.h"
#include "ir/Parallelism.h"

using namespace pf;
using namespace pf::bench;

void pf::bench::extra_models(const FigureArgs &) {
  printHeader("Extended model study (artifact A.7)",
              "PIMFlow on models outside the paper's evaluation, "
              "normalized to the GPU baseline");

  Table T;
  T.setHeader({"model", "inherent par.", "Newton++", "PIMFlow",
               "PIMFlow e2e (us)"});
  for (const std::string &Name : extraModelNames()) {
    Graph G = buildModel(Name);
    const ParallelismStats P = analyzeParallelism(G);
    const double Base =
        cachedRun("xm/" + Name + "/base", Name, OffloadPolicy::GpuOnly)
            .endToEndNs();
    const double Npp = cachedRun("xm/" + Name + "/npp", Name,
                                 OffloadPolicy::NewtonPlusPlus)
                           .endToEndNs();
    const double Flow =
        cachedRun("xm/" + Name + "/flow", Name, OffloadPolicy::PimFlow)
            .endToEndNs();
    T.addRow({Name, formatStr("%.0f%%", P.independentFraction() * 100.0),
              norm(Npp, Base), norm(Flow, Base),
              formatStr("%.1f", Flow / 1e3)});
  }
  std::printf("%s\n", T.render().c_str());
  std::printf("Expected shape: the FC-heavy classics (AlexNet) gain most "
              "from plain offloading; the 1x1-heavy SqueezeNet gains from "
              "MD-DP splits on top of its inherent branch parallelism; "
              "every model at least matches its Newton++ result.\n");
}
