//===- tests/search/PlanCacheTest.cpp - content-addressed cache -*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The plan cache's behavioral contract: repeated compiles of the same
/// (model, config, options, floor) hit; any key ingredient changing —
/// graph edit, SystemConfig tweak, SearchOptions change, fault-floor
/// change — MUST miss; a corrupt cached file is a miss and never a plan;
/// a cache-through compile searches once per key; and the plan_cache.*
/// counters mirror the hit, miss and store accessors.
///
//===----------------------------------------------------------------------===//

#include "plan/PlanCache.h"

#include <atomic>
#include <cstdlib>
#include <gtest/gtest.h>
#include <map>
#include <unistd.h>

#include "core/PimFlow.h"
#include "models/Zoo.h"
#include "obs/Scope.h"
#include "support/Format.h"
#include "support/StringUtil.h"

using namespace pf;

namespace {

/// A fresh cache directory per test so hit/miss counts start from zero.
std::string freshCacheDir(const char *Name) {
  static std::atomic<int> Counter{0};
  const std::string Dir =
      ::testing::TempDir() +
      formatStr("pf_plan_cache_%s_%d_%d", Name, static_cast<int>(getpid()),
                Counter.fetch_add(1));
  // Left to PlanCache::store to create; remove any stale run's leftovers.
  const std::string Cmd = "rm -rf '" + Dir + "'";
  [[maybe_unused]] const int Rc = std::system(Cmd.c_str());
  return Dir;
}

ExecutionPlan searchPlan(const Graph &G) {
  Profiler P(systemConfigFor(OffloadPolicy::PimFlow, {}));
  return SearchEngine(P, searchOptionsFor(OffloadPolicy::PimFlow, {}))
      .search(G);
}

PlanKey keyFor(const Graph &G, const PimFlowOptions &O = {}) {
  return makePlanKey(G, systemConfigFor(OffloadPolicy::PimFlow, O),
                     searchOptionsFor(OffloadPolicy::PimFlow, O),
                     O.PimFloor);
}

} // namespace

TEST(PlanCache, MissThenStoreThenHit) {
  const Graph G = buildModel("toy");
  const PlanKey Key = keyFor(G);
  PlanCache Cache(freshCacheDir("miss_store_hit"));

  EXPECT_FALSE(Cache.load(Key));
  EXPECT_EQ(Cache.misses(), 1u);

  ASSERT_TRUE(Cache.store(Key, searchPlan(G)));
  EXPECT_EQ(Cache.stores(), 1u);

  const auto Cached = Cache.load(Key);
  ASSERT_TRUE(Cached);
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cached->Segments.size(), searchPlan(G).Segments.size());
}

TEST(PlanCache, EveryKeyIngredientInvalidates) {
  const Graph G = buildModel("toy");
  PlanCache Cache(freshCacheDir("invalidation"));
  ASSERT_TRUE(Cache.store(keyFor(G), searchPlan(G)));

  // Graph edit: a different model misses.
  EXPECT_FALSE(Cache.load(keyFor(buildModel("mnasnet-1.0"))));
  // SystemConfig tweak: channel split misses.
  PimFlowOptions Channels;
  Channels.PimChannels = 8;
  EXPECT_FALSE(Cache.load(keyFor(G, Channels)));
  // SystemConfig tweak: memory optimizer off misses.
  PimFlowOptions MemOpt;
  MemOpt.MemoryOptimizer = false;
  EXPECT_FALSE(Cache.load(keyFor(G, MemOpt)));
  // SearchOptions change: stage count misses.
  PimFlowOptions Stages;
  Stages.PipelineStages = 4;
  EXPECT_FALSE(Cache.load(keyFor(G, Stages)));
  // SearchOptions change: autotune refinement misses.
  PimFlowOptions Refine;
  Refine.AutoTuneRatios = true;
  EXPECT_FALSE(Cache.load(keyFor(G, Refine)));
  // Fault-floor change misses even though the search ignores it.
  PimFlowOptions Floor;
  Floor.PimFloor = 3;
  EXPECT_FALSE(Cache.load(keyFor(G, Floor)));

  // ... and the original key still hits.
  EXPECT_TRUE(Cache.load(keyFor(G)));
}

TEST(PlanCache, CorruptCachedFileIsMissNeverAPlan) {
  const Graph G = buildModel("toy");
  const PlanKey Key = keyFor(G);
  PlanCache Cache(freshCacheDir("corrupt"));
  ASSERT_TRUE(Cache.store(Key, searchPlan(G)));

  // Flip a payload byte in the cached artifact.
  std::FILE *F = std::fopen(Cache.pathFor(Key).c_str(), "r+b");
  ASSERT_NE(F, nullptr);
  std::fseek(F, -10, SEEK_END);
  std::fputc('X', F);
  std::fclose(F);

  EXPECT_FALSE(Cache.load(Key));
  // A recompute-and-store overwrites the damage and hits again.
  ASSERT_TRUE(Cache.store(Key, searchPlan(G)));
  EXPECT_TRUE(Cache.load(Key));
}

TEST(PlanCache, CountersMirrorTheAccessors) {
  // The plan_cache.* counters are what --perf-report and the metrics
  // exposition see of the cache: one per miss, store and hit, plus
  // invalid for a corrupt file, and no other family.
  const Graph G = buildModel("toy");
  const PlanKey Key = keyFor(G);
  const ExecutionPlan Plan = searchPlan(G);
  obs::Scope Run;
  obs::ScopeGuard Guard(Run);
  PlanCache Cache(freshCacheDir("counters"));

  EXPECT_FALSE(Cache.load(Key));
  ASSERT_TRUE(Cache.store(Key, Plan));
  EXPECT_TRUE(Cache.load(Key));
  EXPECT_TRUE(Cache.load(Key));
  std::FILE *F = std::fopen(Cache.pathFor(Key).c_str(), "r+b");
  ASSERT_NE(F, nullptr);
  std::fseek(F, -10, SEEK_END);
  std::fputc('X', F);
  std::fclose(F);
  EXPECT_FALSE(Cache.load(Key));

  std::map<std::string, int64_t> Counters;
  for (const auto &[Name, V] : Run.registry().counterSnapshot())
    if (startsWith(Name, "plan_cache."))
      Counters[Name] = V;
  const std::map<std::string, int64_t> Expected = {
      {"plan_cache.hit", 2},
      {"plan_cache.invalid", 1},
      {"plan_cache.miss", 2},
      {"plan_cache.store", 1}};
  EXPECT_EQ(Counters, Expected);
  EXPECT_EQ(Cache.hits(), 2u);
  EXPECT_EQ(Cache.misses(), 2u);
  EXPECT_EQ(Cache.stores(), 1u);
}

TEST(PlanCache, GetOrComputeRunsTheSearchOnce) {
  const Graph G = buildModel("toy");
  const PlanKey Key = keyFor(G);
  PlanCache Cache(freshCacheDir("compute_once"));
  int Computes = 0;
  auto Compute = [&] {
    ++Computes;
    return searchPlan(G);
  };

  const ExecutionPlan First = Cache.getOrCompute(Key, Compute);
  EXPECT_EQ(Computes, 1);
  EXPECT_EQ(Cache.misses(), 1u);
  EXPECT_EQ(Cache.stores(), 1u);

  // Second call on the same instance: a disk hit on the file the first
  // call stored.
  const ExecutionPlan Second = Cache.getOrCompute(Key, Compute);
  EXPECT_EQ(Computes, 1);
  EXPECT_EQ(Second.Segments.size(), First.Segments.size());

  // A brand-new cache instance over the same directory: served from disk.
  PlanCache Fresh(Cache.dir());
  const ExecutionPlan Third = Fresh.getOrCompute(Key, Compute);
  EXPECT_EQ(Computes, 1);
  EXPECT_EQ(Fresh.hits(), 1u);
  EXPECT_EQ(Third.Segments.size(), First.Segments.size());
}

TEST(PlanCache, DistinctKeysEachSearchOnce) {
  const Graph G = buildModel("toy");
  PlanCache Cache(freshCacheDir("distinct_keys"));
  int Computes = 0;
  auto Compute = [&] {
    ++Computes;
    return searchPlan(G);
  };

  constexpr int kKeys = 6;
  for (int Pass = 0; Pass < 2; ++Pass)
    for (int I = 0; I < kKeys; ++I) {
      PlanKey Key = keyFor(G);
      Key.FaultFloor = I + 1; // Distinct content address.
      Cache.getOrCompute(Key, Compute);
    }
  // The first pass searched and stored every key; the second hit them all.
  EXPECT_EQ(Computes, kKeys);
  EXPECT_EQ(Cache.misses(), static_cast<size_t>(kKeys));
  EXPECT_EQ(Cache.stores(), static_cast<size_t>(kKeys));
  EXPECT_EQ(Cache.hits(), static_cast<size_t>(kKeys));
}

TEST(PlanCache, FacadeUsesTheCacheEndToEnd) {
  const Graph G = buildModel("toy");
  PimFlowOptions O;
  O.PlanCacheDir = freshCacheDir("facade");

  PimFlow First(OffloadPolicy::PimFlow, O);
  const CompileResult A = First.compileAndRun(G);
  ASSERT_NE(First.planCache(), nullptr);
  EXPECT_EQ(First.planCache()->misses(), 1u);
  EXPECT_EQ(First.planCache()->stores(), 1u);

  // A second facade over the same directory replays from disk: no search,
  // no profiler traffic, identical execution.
  PimFlow Second(OffloadPolicy::PimFlow, O);
  const CompileResult B = Second.compileAndRun(G);
  EXPECT_EQ(Second.planCache()->hits(), 1u);
  EXPECT_EQ(Second.profiler().cacheHits() + Second.profiler().cacheMisses(),
            0u);
  EXPECT_EQ(B.endToEndNs(), A.endToEndNs());
  EXPECT_EQ(B.energyJ(), A.energyJ());
  EXPECT_EQ(B.ConvLayerNs, A.ConvLayerNs);
}
