//===- bench/table2_ratios.cpp - Table 2 ------------------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Table 2: the distribution of MD-DP split ratios the search
/// picks across all PIM-candidate layers of the five models (0 = total
/// offload to PIM, 100 = full GPU), plus the Section-7 compilation-
/// overhead statistics (profiling sample counts and cache effectiveness).
///
//===----------------------------------------------------------------------===//

#include <cstdio>

#include "BenchCommon.h"
#include "search/Profiler.h"
#include "search/SearchEngine.h"

using namespace pf;
using namespace pf::bench;

void pf::bench::table2_ratios(const FigureArgs &) {
  printHeader("Table 2",
              "Distribution of MD-DP split ratios to GPU over all "
              "PIM-candidate layers (0 = total offload)");

  // One shared profiler so the compile-overhead stats aggregate.
  Profiler P(SystemConfig::dual());
  SearchOptions Options; // Full PIMFlow-md option set.
  Options.AllowPipeline = false;

  int Histogram[11] = {};
  int TotalLayers = 0;
  for (const std::string &Name : modelNames()) {
    Graph G = buildModel(Name);
    SearchEngine S(P, Options);
    ExecutionPlan Plan = S.search(G);
    for (const SegmentPlan &Seg : Plan.Segments) {
      double Ratio;
      switch (Seg.Mode) {
      case SegmentMode::FullPim:
        Ratio = 0.0;
        break;
      case SegmentMode::MdDp:
        Ratio = Seg.RatioGpu;
        break;
      case SegmentMode::GpuNode:
        if (!isPimCandidate(G.node(Seg.Nodes[0])))
          continue;
        Ratio = 1.0;
        break;
      default:
        continue;
      }
      ++Histogram[static_cast<int>(Ratio * 10.0 + 0.5)];
      ++TotalLayers;
    }
  }

  Table T;
  {
    std::vector<std::string> Header, Row;
    for (int B = 0; B <= 10; ++B)
      Header.push_back(formatStr("%d", B * 10));
    T.setHeader(Header);
    for (int B = 0; B <= 10; ++B)
      Row.push_back(formatStr("%.0f%%",
                              100.0 * Histogram[B] / TotalLayers));
    T.addRow(Row);
  }
  std::printf("Split ratio to GPU (%% of %d candidate layers):\n%s\n",
              TotalLayers, T.render().c_str());

  const int Split = TotalLayers - Histogram[0] - Histogram[10];
  std::printf("%.0f%% fully offloaded, %.0f%% split across GPU and PIM, "
              "%.0f%% kept on GPU (paper: 41%% / 58%% / 0%%).\n\n",
              100.0 * Histogram[0] / TotalLayers,
              100.0 * Split / TotalLayers,
              100.0 * Histogram[10] / TotalLayers);

  std::printf("Compilation overhead (Section 7): %zu profiled samples, "
              "%zu served from the metadata cache (%.0f%% hit rate; "
              "identical layers repeat across blocks and models).\n",
              P.cacheMisses(), P.cacheHits(),
              100.0 * static_cast<double>(P.cacheHits()) /
                  static_cast<double>(P.cacheHits() + P.cacheMisses()));
}
