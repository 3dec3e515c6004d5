//===- bench/BenchCommon.cpp - Shared bench harness helpers -----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>
#include <vector>

#include "obs/Json.h"
#include "support/TextFile.h"

namespace pf::bench {

namespace {

std::string CurrentFigure;
std::vector<BenchResult> Results;

} // namespace

CompileResult &cachedRun(const std::string &Key, const std::string &Model,
                         OffloadPolicy Policy,
                         const PimFlowOptions &Options) {
  static std::map<std::string, CompileResult> Cache;
  auto It = Cache.find(Key);
  if (It != Cache.end())
    return It->second;
  Graph G = buildModel(Model);
  PimFlow Flow(Policy, Options);
  CompileResult &R = Cache.emplace(Key, Flow.compileAndRun(G)).first->second;
  BenchResult BR;
  BR.Figure = CurrentFigure;
  BR.Key = Key;
  BR.Model = Model;
  BR.Policy = policyName(Policy);
  BR.EndToEndNs = R.endToEndNs();
  BR.EnergyJ = R.energyJ();
  recordResult(BR);
  return R;
}

void printHeader(const char *Figure, const char *Caption) {
  CurrentFigure = Figure;
  std::printf("=== %s ===\n%s\n\n", Figure, Caption);
}

std::string norm(double Value, double Baseline) {
  return formatStr("%.3f", Baseline > 0.0 ? Value / Baseline : 0.0);
}

void recordResult(const BenchResult &R) { Results.push_back(R); }

std::string renderResultsJson() {
  obs::JsonWriter W;
  W.beginObject().key("results").beginArray();
  for (const BenchResult &R : Results)
    W.beginObject()
        .field("figure", R.Figure)
        .field("key", R.Key)
        .field("model", R.Model)
        .field("policy", R.Policy)
        .field("end_to_end_ns", R.EndToEndNs)
        .field("energy_j", R.EnergyJ)
        .endObject();
  W.endArray().endObject();
  return W.take();
}

bool writeResultsJson(const std::string &Path) {
  return writeTextFile(Path, renderResultsJson());
}

} // namespace pf::bench
