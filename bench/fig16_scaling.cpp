//===- bench/fig16_scaling.cpp - Fig. 16 ------------------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Fig. 16: model-type and model-size sensitivity. (a) BERT at
/// sequence lengths 3 and 64: for the tiny input PIMFlow matches Newton++,
/// while the longer sequence opens MD-DP over the FC batch rows. (b)
/// Scaled EfficientNet variants: PIMFlow's advantage shrinks as the model
/// grows, because even 1x1 CONV layers gain arithmetic intensity and data
/// reuse that favor the GPU.
///
//===----------------------------------------------------------------------===//

#include <cstdio>

#include "BenchCommon.h"

using namespace pf;
using namespace pf::bench;

void pf::bench::fig16_scaling(const FigureArgs &) {
  printHeader("Figure 16", "Model type and size sensitivity");

  // (a) BERT sequence-length study.
  std::printf("(a) BERT-base encoder (normalized to GPU baseline):\n");
  Table Bert;
  Bert.setHeader({"input", "Baseline", "Newton++", "PIMFlow",
                  "PIMFlow vs Newton++"});
  for (int64_t Seq : {3, 64}) {
    Graph Short = buildBertEncoder(Seq);
    const double Base =
        PimFlow(OffloadPolicy::GpuOnly).compileAndRun(Short).endToEndNs();
    const double Npp = PimFlow(OffloadPolicy::NewtonPlusPlus)
                           .compileAndRun(Short)
                           .endToEndNs();
    const double Flow =
        PimFlow(OffloadPolicy::PimFlow).compileAndRun(Short).endToEndNs();
    Bert.addRow({formatStr("1x%lld", (long long)Seq), "1.000",
                 norm(Npp, Base), norm(Flow, Base),
                 formatStr("%+.0f%%", (Npp / Flow - 1.0) * 100.0)});
  }
  std::printf("%s\n", Bert.render().c_str());

  // (b) Scaled EfficientNets.
  std::printf("(b) EfficientNet scaling (PIMFlow end-to-end speedup over "
              "the GPU baseline):\n");
  Table ENet;
  ENet.setHeader({"variant", "resolution", "baseline (us)",
                  "pimflow (us)", "speedup"});
  for (int V : {0, 1, 2, 3, 4, 6}) {
    Graph G = buildEfficientNet(V);
    const int64_t Res = G.value(G.graphInputs()[0]).Shape.dim(1);
    const double Base =
        PimFlow(OffloadPolicy::GpuOnly).compileAndRun(G).endToEndNs();
    const double Flow =
        PimFlow(OffloadPolicy::PimFlow).compileAndRun(G).endToEndNs();
    ENet.addRow({formatStr("ENetB%d", V),
                 formatStr("%lld", (long long)Res),
                 formatStr("%.0f", Base / 1e3),
                 formatStr("%.0f", Flow / 1e3),
                 formatStr("%+.0f%%", (Base / Flow - 1.0) * 100.0)});
  }
  std::printf("%s\n", ENet.render().c_str());

  // (c) Width-scaled MobileNetV2 / MnasNet (the paper also scales these).
  std::printf("(c) width-scaled mobile nets (PIMFlow end-to-end speedup "
              "over the GPU baseline):\n");
  Table Mob;
  Mob.setHeader({"model", "w1.0", "w1.4", "w2.0"});
  for (int Which = 0; Which < 2; ++Which) {
    std::vector<std::string> Row = {Which == 0 ? "mobilenet-v2"
                                               : "mnasnet"};
    for (double W : {1.0, 1.4, 2.0}) {
      Graph G = Which == 0 ? buildMobileNetV2(W) : buildMnasNet(W);
      const double Base =
          PimFlow(OffloadPolicy::GpuOnly).compileAndRun(G).endToEndNs();
      const double Flow =
          PimFlow(OffloadPolicy::PimFlow).compileAndRun(G).endToEndNs();
      Row.push_back(formatStr("%+.0f%%", (Base / Flow - 1.0) * 100.0));
    }
    Mob.addRow(Row);
  }
  std::printf("%s\n", Mob.render().c_str());

  std::printf("Expected shape: BERT 1x3 gains nothing from PIMFlow over "
              "Newton++ while 1x64 gains substantially (paper: +32%%); "
              "the EfficientNet speedup decays as the variant grows "
              "(paper: down to ~7%% at B6; our simulated crossover "
              "arrives earlier, around B4, because large activations "
              "punish the halved GPU channel count harder).\n");
}
