//===- plan/PlanCache.h - Content-addressed plan cache ----------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A content-addressed on-disk cache of compiled execution plans, keyed by
/// PlanKey::digest() — (canonical graph hash, SystemConfig fingerprint,
/// SearchOptions fingerprint, fault floor). Repeated compiles of the same
/// (model, config) pair are cache hits that skip the MD-DP search
/// entirely; any key change (graph edit, config tweak, option change,
/// floor change) addresses a different file and misses.
///
/// A PlanCache expects one caller at a time: one PimFlow owns one cache.
/// An unreadable or corrupt cached file is a miss (recompute and
/// overwrite), never a plan and never an error: the cache must not be able
/// to change what a compile produces, only how fast.
///
/// Observability: `plan_cache.{hit,miss,store,invalid}` counters and
/// the `plan.load_us` / `plan.validate_us` latency histograms (recorded by
/// the artifact layer) surface in `--perf-report` and the Prometheus
/// exposition.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_PLAN_PLANCACHE_H
#define PIMFLOW_PLAN_PLANCACHE_H

#include <functional>
#include <optional>

#include "plan/PlanArtifact.h"

namespace pf {

/// Content-addressed plan store under one directory.
class PlanCache {
public:
  /// \p Dir is created on first store if missing.
  explicit PlanCache(std::string Dir);

  /// The artifact path digest \p Key addresses (inside the cache dir).
  std::string pathFor(const PlanKey &Key) const;

  /// Loads the cached plan for \p Key. Returns std::nullopt on miss —
  /// including a present-but-corrupt file or a digest collision whose
  /// stored key disagrees (counted under plan_cache.invalid).
  std::optional<ExecutionPlan> load(const PlanKey &Key);

  /// Serializes \p Plan under \p Key.
  bool store(const PlanKey &Key, const ExecutionPlan &Plan);

  /// The cache-through compile: load, or run \p Compute and store.
  ExecutionPlan getOrCompute(const PlanKey &Key,
                             const std::function<ExecutionPlan()> &Compute);

  const std::string &dir() const { return Dir; }
  size_t hits() const { return Hits; }
  size_t misses() const { return Misses; }
  size_t stores() const { return Stores; }

private:
  std::string Dir;
  size_t Hits = 0;
  size_t Misses = 0;
  size_t Stores = 0;
};

} // namespace pf

#endif // PIMFLOW_PLAN_PLANCACHE_H
