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
#include "support/TextFile.h"

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

/// The configuration and search options of keyFor's default key.
const SystemConfig DefaultConfig = systemConfigFor(OffloadPolicy::PimFlow, {});
const SearchOptions DefaultSearch =
    searchOptionsFor(OffloadPolicy::PimFlow, {});

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

  EXPECT_FALSE(Cache.load(Key, G, DefaultConfig, DefaultSearch));
  EXPECT_EQ(Cache.misses(), 1u);

  ASSERT_TRUE(Cache.store(Key, searchPlan(G)));
  EXPECT_EQ(Cache.stores(), 1u);

  const auto Cached = Cache.load(Key, G, DefaultConfig, DefaultSearch);
  ASSERT_TRUE(Cached);
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cached->Segments.size(), searchPlan(G).Segments.size());
}

TEST(PlanCache, EveryKeyIngredientInvalidates) {
  const Graph G = buildModel("toy");
  PlanCache Cache(freshCacheDir("invalidation"));
  ASSERT_TRUE(Cache.store(keyFor(G), searchPlan(G)));

  // Graph edit: a different model misses.
  const Graph Other = buildModel("mnasnet-1.0");
  EXPECT_FALSE(Cache.load(keyFor(Other), Other, DefaultConfig, DefaultSearch));
  // SystemConfig tweak: channel split misses.
  PimFlowOptions Channels;
  Channels.PimChannels = 8;
  EXPECT_FALSE(
      Cache.load(keyFor(G, Channels), G, DefaultConfig, DefaultSearch));
  // SystemConfig tweak: memory optimizer off misses.
  PimFlowOptions MemOpt;
  MemOpt.MemoryOptimizer = false;
  EXPECT_FALSE(Cache.load(keyFor(G, MemOpt), G, DefaultConfig, DefaultSearch));
  // SearchOptions change: stage count misses.
  PimFlowOptions Stages;
  Stages.PipelineStages = 4;
  EXPECT_FALSE(Cache.load(keyFor(G, Stages), G, DefaultConfig, DefaultSearch));
  // SearchOptions change: autotune refinement misses.
  PimFlowOptions Refine;
  Refine.AutoTuneRatios = true;
  EXPECT_FALSE(Cache.load(keyFor(G, Refine), G, DefaultConfig, DefaultSearch));
  // Fault-floor change misses even though the search ignores it.
  PimFlowOptions Floor;
  Floor.PimFloor = 3;
  EXPECT_FALSE(Cache.load(keyFor(G, Floor), G, DefaultConfig, DefaultSearch));

  // ... and the original key still hits.
  EXPECT_TRUE(Cache.load(keyFor(G), G, DefaultConfig, DefaultSearch));
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

  EXPECT_FALSE(Cache.load(Key, G, DefaultConfig, DefaultSearch));
  // A recompute-and-store overwrites the damage and hits again.
  ASSERT_TRUE(Cache.store(Key, searchPlan(G)));
  EXPECT_TRUE(Cache.load(Key, G, DefaultConfig, DefaultSearch));
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

  EXPECT_FALSE(Cache.load(Key, G, DefaultConfig, DefaultSearch));
  ASSERT_TRUE(Cache.store(Key, Plan));
  EXPECT_TRUE(Cache.load(Key, G, DefaultConfig, DefaultSearch));
  EXPECT_TRUE(Cache.load(Key, G, DefaultConfig, DefaultSearch));
  std::FILE *F = std::fopen(Cache.pathFor(Key).c_str(), "r+b");
  ASSERT_NE(F, nullptr);
  std::fseek(F, -10, SEEK_END);
  std::fputc('X', F);
  std::fclose(F);
  EXPECT_FALSE(Cache.load(Key, G, DefaultConfig, DefaultSearch));

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

TEST(PlanCache, PlanThatDoesNotFitItsModelIsAnInvalidMiss) {
  // A cached plan with an honest key and checksum that leaves a node
  // uncovered is a miss, counted as invalid, and is overwritten.
  const Graph G = buildModel("toy");
  const PlanKey Key = keyFor(G);
  ExecutionPlan Unfit = searchPlan(G);
  Unfit.Segments.erase(Unfit.Segments.begin() + 1);
  Unfit.Decisions.erase(Unfit.Decisions.begin() + 1);
  obs::Scope Run;
  obs::ScopeGuard Guard(Run);
  PlanCache Cache(freshCacheDir("unfit"));
  ASSERT_TRUE(Cache.store(Key, Unfit));

  int Computes = 0;
  const ExecutionPlan Plan =
      Cache.getOrCompute(Key, G, DefaultConfig, DefaultSearch, [&] {
        ++Computes;
        return searchPlan(G);
      });
  EXPECT_EQ(Computes, 1);
  EXPECT_EQ(Plan.Segments.size(), searchPlan(G).Segments.size());
  EXPECT_EQ(Run.registry().counter("plan_cache.invalid").value(), 1);
  EXPECT_TRUE(Cache.load(Key, G, DefaultConfig, DefaultSearch));
}

TEST(PlanCache, PlanThatDoesNotFitItsConfigurationIsAnInvalidMiss) {
  // A Baseline plan (no PIM channels; sp0/pl0/fo0) with an honest key and
  // checksum whose node 0 is edited into a pim segment fits the model but
  // not the configuration or the search options: a miss, counted as
  // invalid, and overwritten.
  const Graph G = buildModel("toy");
  const SystemConfig Config = systemConfigFor(OffloadPolicy::GpuOnly, {});
  const SearchOptions Search = searchOptionsFor(OffloadPolicy::GpuOnly, {});
  const PlanKey Key = makePlanKey(G, Config, Search, 1);
  auto Baseline = [&] {
    Profiler P(Config);
    return SearchEngine(P, Search).search(G);
  };
  ExecutionPlan Forged = Baseline();
  ASSERT_EQ(Forged.Segments[0].Mode, SegmentMode::GpuNode);
  ASSERT_EQ(Forged.Decisions[0].Id, Forged.Segments[0].Nodes[0]);
  Forged.Segments[0].Mode = SegmentMode::FullPim;
  Forged.Segments[0].RatioGpu = 0.0;
  Forged.Decisions[0].Candidates.push_back(
      CandidateOption{SegmentMode::FullPim, 0.0, 1000.0});
  obs::Scope Run;
  obs::ScopeGuard Guard(Run);
  PlanCache Cache(freshCacheDir("unfit_config"));
  ASSERT_TRUE(Cache.store(Key, Forged));

  int Computes = 0;
  const ExecutionPlan Plan = Cache.getOrCompute(Key, G, Config, Search, [&] {
    ++Computes;
    return Baseline();
  });
  EXPECT_EQ(Computes, 1);
  EXPECT_EQ(Plan.Segments[0].Mode, SegmentMode::GpuNode);
  EXPECT_EQ(Run.registry().counter("plan_cache.invalid").value(), 1);
  EXPECT_TRUE(Cache.load(Key, G, Config, Search));
}

TEST(PlanCache, OlderFormatIsAMissAndOverwritten) {
  const Graph G = buildModel("toy");
  const PlanKey Key = keyFor(G);
  PlanCache Cache(freshCacheDir("older_format"));
  ASSERT_TRUE(Cache.store(Key, searchPlan(G)));
  // The same payload under the v1 header: plan.version, so a miss.
  std::string Text = serializePlanArtifact({Key, searchPlan(G)});
  Text.replace(Text.find(" v2 "), 4, " v1 ");
  ASSERT_TRUE(writeTextFile(Cache.pathFor(Key), Text));

  int Computes = 0;
  Cache.getOrCompute(Key, G, DefaultConfig, DefaultSearch, [&] {
    ++Computes;
    return searchPlan(G);
  });
  EXPECT_EQ(Computes, 1);
  const std::optional<std::string> Rewritten =
      readTextFile(Cache.pathFor(Key));
  ASSERT_TRUE(Rewritten);
  EXPECT_TRUE(startsWith(*Rewritten, "pimflow-plan v2 "));
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

  const ExecutionPlan First =
      Cache.getOrCompute(Key, G, DefaultConfig, DefaultSearch, Compute);
  EXPECT_EQ(Computes, 1);
  EXPECT_EQ(Cache.misses(), 1u);
  EXPECT_EQ(Cache.stores(), 1u);

  // Second call on the same instance: a disk hit on the file the first
  // call stored.
  const ExecutionPlan Second =
      Cache.getOrCompute(Key, G, DefaultConfig, DefaultSearch, Compute);
  EXPECT_EQ(Computes, 1);
  EXPECT_EQ(Second.Segments.size(), First.Segments.size());

  // A brand-new cache instance over the same directory: served from disk.
  PlanCache Fresh(Cache.dir());
  const ExecutionPlan Third =
      Fresh.getOrCompute(Key, G, DefaultConfig, DefaultSearch, Compute);
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
      Cache.getOrCompute(Key, G, DefaultConfig, DefaultSearch, Compute);
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
