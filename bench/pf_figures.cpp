//===- bench/pf_figures.cpp - One driver for every figure -------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `pf_figures <figure> [args]` regenerates one table or figure of the
/// paper's evaluation (DESIGN.md section 4) and prints it to stdout. When
/// PIMFLOW_BENCH_JSON names a path, the figure's recorded data points are
/// written there as JSON once it returns.
///
/// Exactly one figure runs per process, so cachedRun's memo never spans
/// two figures. An unknown figure, or an argument the figure does not
/// take, exits 2 before any work runs.
///
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <cstdlib>
#include <string>

#include "BenchCommon.h"

using namespace pf;
using namespace pf::bench;

namespace {

struct Figure {
  const char *Name;
  void (*Run)(const FigureArgs &);
  const char *Flag; ///< The one flag the figure takes, or nullptr.
  bool TakesModels; ///< Positional model names pick what it sweeps.
};

constexpr Figure Figures[] = {
    {"fig01_breakdown", fig01_breakdown, nullptr, false},
    {"fig03_channels", fig03_channels, nullptr, false},
    {"table1_config", table1_config, nullptr, false},
    {"fig08_validation", fig08_validation, nullptr, false},
    {"fig09_main", fig09_main, "--contention", true},
    {"fig10_layerwise", fig10_layerwise, nullptr, true},
    {"fig11_pipeline", fig11_pipeline, nullptr, false},
    {"fig12_energy", fig12_energy, nullptr, false},
    {"table2_ratios", table2_ratios, nullptr, false},
    {"fig13_channel_ratio", fig13_channel_ratio, nullptr, false},
    {"fig14_cmd_opts", fig14_cmd_opts, "--no-memopt", false},
    {"fig15_stages", fig15_stages, nullptr, false},
    {"fig16_scaling", fig16_scaling, nullptr, false},
    {"micro", micro, nullptr, false},
    {"ablation_search", ablation_search, nullptr, false},
    {"arch_compare", arch_compare, nullptr, false},
    {"prelim_parallelism", prelim_parallelism, nullptr, false},
    {"extra_models", extra_models, nullptr, false},
};

int usage() {
  std::fprintf(stderr, "usage: pf_figures <figure> [args]\nfigures:\n");
  for (const Figure &F : Figures)
    std::fprintf(stderr, "  %s%s%s%s\n", F.Name, F.Flag ? " [" : "",
                 F.Flag ? F.Flag : "", F.Flag ? "]" : "");
  std::fprintf(stderr, "  (fig09_main and fig10_layerwise also take "
                       "model names)\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  const Figure *F = nullptr;
  if (Argc > 1)
    for (const Figure &Candidate : Figures)
      if (std::string(Argv[1]) == Candidate.Name)
        F = &Candidate;
  if (!F)
    return usage();

  FigureArgs Args;
  for (int I = 2; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (F->Flag && Arg == F->Flag)
      Args.Flags.push_back(Arg);
    else if (F->TakesModels && tryBuildModel(Arg))
      Args.Models.push_back(Arg);
    else {
      std::fprintf(stderr, "error: %s does not take '%s'\n", F->Name,
                   Arg.c_str());
      return usage();
    }
  }

  F->Run(Args);
  const char *Path = std::getenv("PIMFLOW_BENCH_JSON");
  if (Path && !writeResultsJson(Path)) {
    std::fprintf(stderr, "error: cannot write %s\n", Path);
    return 1;
  }
  return 0;
}
