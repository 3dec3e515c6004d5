//===- bench/BenchCommon.h - Shared bench harness helpers -------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the figures of the pf_figures driver: cached
/// compile-and-run over (model, policy, options) and normalized-series
/// table printing. Every figure regenerates the rows/series of one table
/// or figure of the paper's evaluation (see DESIGN.md section 4 for the
/// index).
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_BENCH_BENCHCOMMON_H
#define PIMFLOW_BENCH_BENCHCOMMON_H

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/PimFlow.h"
#include "models/Zoo.h"
#include "support/Format.h"
#include "support/Stats.h"
#include "support/Table.h"

namespace pf::bench {

/// Compiles and runs \p Model under \p Policy, memoizing by a caller-chosen
/// key so sweeps that revisit configurations stay fast. Every fresh (non
/// cache-hit) run is also recorded for the machine-readable results dump
/// (see writeResultsJson).
CompileResult &cachedRun(const std::string &Key, const std::string &Model,
                         OffloadPolicy Policy,
                         const PimFlowOptions &Options = {});

/// Prints a standard figure header and tags subsequently recorded results
/// with \p Figure.
void printHeader(const char *Figure, const char *Caption);

/// Formats a value normalized to \p Baseline with 3 decimals.
std::string norm(double Value, double Baseline);

/// One recorded data point of a figure.
struct BenchResult {
  std::string Figure;  ///< From the preceding printHeader.
  std::string Key;     ///< The cachedRun cache key.
  std::string Model;
  std::string Policy;
  double EndToEndNs = 0.0;
  double EnergyJ = 0.0;
};

/// Appends a data point to the results log (cachedRun does this
/// automatically; figures computing derived values can add extra points).
void recordResult(const BenchResult &R);

/// The accumulated results as a JSON document
/// ({"results":[{figure,key,model,policy,end_to_end_ns,energy_j}...]}).
std::string renderResultsJson();

/// Writes renderResultsJson() to \p Path; false on I/O failure. pf_figures
/// does this once its figure returns when PIMFLOW_BENCH_JSON names a path.
bool writeResultsJson(const std::string &Path);

/// The arguments pf_figures accepted for one figure: the flags it takes
/// that were given, and its positional model names, in order.
struct FigureArgs {
  std::vector<std::string> Flags;
  std::vector<std::string> Models;

  bool has(const std::string &Flag) const {
    return std::find(Flags.begin(), Flags.end(), Flag) != Flags.end();
  }
};

/// The figures, one per table or figure of the evaluation; each is a
/// `pf_figures <name>` verb (bench/pf_figures.cpp).
void fig01_breakdown(const FigureArgs &Args);
void fig03_channels(const FigureArgs &Args);
void table1_config(const FigureArgs &Args);
void fig08_validation(const FigureArgs &Args);
void fig09_main(const FigureArgs &Args);
void fig10_layerwise(const FigureArgs &Args);
void fig11_pipeline(const FigureArgs &Args);
void fig12_energy(const FigureArgs &Args);
void table2_ratios(const FigureArgs &Args);
void fig13_channel_ratio(const FigureArgs &Args);
void fig14_cmd_opts(const FigureArgs &Args);
void fig15_stages(const FigureArgs &Args);
void fig16_scaling(const FigureArgs &Args);
void micro(const FigureArgs &Args);
void ablation_search(const FigureArgs &Args);
void arch_compare(const FigureArgs &Args);
void prelim_parallelism(const FigureArgs &Args);
void extra_models(const FigureArgs &Args);

} // namespace pf::bench

#endif // PIMFLOW_BENCH_BENCHCOMMON_H
