//===- bench/arch_compare.cpp - PIM architecture study ----------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section-8 claim check: "PIMFlow is designed with such PIM architectures
/// in mind, and thus it can be readily adapted to support them." This
/// bench retargets the full compiler to an HBM-PIM-style device (Samsung's
/// bank-level MAC architecture: more, slower pseudo-channel units with
/// smaller buffers) purely through the PimConfig interface and compares
/// the end-to-end outcome against the default GDDR6 AiM/Newton target.
///
//===----------------------------------------------------------------------===//

#include <cstdio>

#include "BenchCommon.h"
#include "search/Profiler.h"
#include "search/SearchEngine.h"
#include "runtime/ExecutionEngine.h"

using namespace pf;
using namespace pf::bench;

namespace {

/// Compiles and runs \p Model with an explicit PIM device config.
double runWithPim(const std::string &Model, const PimConfig &Pim) {
  SystemConfig C = SystemConfig::dual();
  C.Pim = Pim;
  C.Pim.Channels = 16; // Same channel budget for a fair comparison.
  Profiler P(C);
  SearchOptions S; // Full PIMFlow options.
  Graph G = buildModel(Model);
  SearchEngine Engine(P, S);
  ExecutionPlan Plan = Engine.search(G);
  SearchEngine::apply(G, Plan);
  return ExecutionEngine(C).execute(G).TotalNs;
}

} // namespace

void pf::bench::arch_compare(const FigureArgs &) {
  printHeader("PIM architecture study",
              "Full PIMFlow retargeted to a different DRAM-PIM device "
              "through PimConfig alone (16 PIM channels each, normalized "
              "to the GPU baseline)");

  Table T;
  T.setHeader({"model", "GDDR6 AiM (default)", "HBM-PIM style"});
  for (const std::string Model :
       {"efficientnet-v1-b0", "mobilenet-v2", "resnet-50"}) {
    const double Base =
        cachedRun("arch/" + Model + "/base", Model, OffloadPolicy::GpuOnly)
            .endToEndNs();
    const double Aim = runWithPim(Model, PimConfig::newtonPlusPlus());
    const double Hbm = runWithPim(Model, PimConfig::hbmPim());
    T.addRow({Model, norm(Aim, Base), norm(Hbm, Base)});
  }
  std::printf("%s\n", T.render().c_str());
  std::printf("Expected shape: the compiler retargets without code "
              "changes; the HBM-PIM-style datapath (8 banks at 1.2 GHz = "
              "~40%% of the AiM MAC rate per channel) retains only part "
              "of the gain, so compute-heavier models keep more of their "
              "speedup than bandwidth-bound mobile nets.\n");
}
