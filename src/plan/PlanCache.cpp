//===- plan/PlanCache.cpp - Content-addressed plan cache ------------------===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "plan/PlanCache.h"

#include <cerrno>
#include <sys/stat.h>
#include <sys/types.h>

#include "obs/Counters.h"
#include "support/Log.h"
#include "support/StringUtil.h"

using namespace pf;

namespace {

/// mkdir -p: creates every missing component of \p Path. Racing creators
/// are fine (EEXIST is success).
bool makeDirs(const std::string &Path) {
  std::string Prefix;
  for (const std::string &Part : split(Path, '/')) {
    Prefix += Part;
    if (!Prefix.empty() && Prefix != "." && Prefix != "..")
      if (::mkdir(Prefix.c_str(), 0755) != 0 && errno != EEXIST)
        return false;
    Prefix += '/';
  }
  return true;
}

} // namespace

PlanCache::PlanCache(std::string Dir) : Dir(std::move(Dir)) {}

std::string PlanCache::pathFor(const PlanKey &Key) const {
  return Dir + "/" + Key.digest() + ".plan";
}

std::optional<ExecutionPlan> PlanCache::load(const PlanKey &Key,
                                             const Graph &Model,
                                             const SystemConfig &Config,
                                             const SearchOptions &Search) {
  const std::string Path = pathFor(Key);
  struct stat St;
  if (::stat(Path.c_str(), &St) != 0) {
    ++Misses;
    obs::addCounter("plan_cache.miss");
    return std::nullopt;
  }
  // A present-but-invalid file is a miss, never an error and never a plan:
  // the compile falls through to a fresh search and overwrites it.
  DiagnosticEngine DE;
  auto A = loadPlanArtifact(Path, DE);
  if (!A || A->Key != Key ||
      !SearchEngine::canApply(Model, A->Plan, Config, Search, DE)) {
    PF_LOG_INFO("plan cache: invalid cached artifact %s (%s), recomputing",
                Path.c_str(),
                !A                ? "corrupt"
                : A->Key != Key   ? "stored key disagrees with digest"
                                  : "plan does not fit the model or "
                                    "configuration");
    ++Misses;
    obs::addCounter("plan_cache.miss");
    obs::addCounter("plan_cache.invalid");
    return std::nullopt;
  }
  ++Hits;
  obs::addCounter("plan_cache.hit");
  return std::move(A->Plan);
}

bool PlanCache::store(const PlanKey &Key, const ExecutionPlan &Plan) {
  if (!makeDirs(Dir))
    return false;
  if (!savePlanArtifact({Key, Plan}, pathFor(Key)))
    return false;
  ++Stores;
  obs::addCounter("plan_cache.store");
  return true;
}

ExecutionPlan
PlanCache::getOrCompute(const PlanKey &Key, const Graph &Model,
                        const SystemConfig &Config,
                        const SearchOptions &Search,
                        const std::function<ExecutionPlan()> &Compute) {
  if (std::optional<ExecutionPlan> Cached = load(Key, Model, Config, Search))
    return std::move(*Cached);
  // load() counted the miss; compute and persist for the next compile.
  ExecutionPlan Fresh = Compute();
  if (!store(Key, Fresh))
    PF_LOG_INFO("plan cache: cannot write %s (caching skipped)",
                pathFor(Key).c_str());
  return Fresh;
}
