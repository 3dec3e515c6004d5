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
/// getOrCompute is single-flight, the same discipline as the profiler's
/// memo table: concurrent same-key compiles resolve to one search — the
/// winner computes and stores, every loser blocks on the winner's shared
/// future and counts a hit. An unreadable or corrupt cached file is a miss
/// (recompute and overwrite), never a plan and never an error: the cache
/// must not be able to change what a compile produces, only how fast.
///
/// Observability: `plan_cache.{hit,miss,store,evict,invalid}` counters and
/// the `plan.load_us` / `plan.validate_us` latency histograms (recorded by
/// the artifact layer) surface in `--perf-report` and the Prometheus
/// exposition.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_PLAN_PLANCACHE_H
#define PIMFLOW_PLAN_PLANCACHE_H

#include <atomic>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "plan/PlanArtifact.h"

namespace pf {

/// Content-addressed plan store under one directory.
class PlanCache {
public:
  /// \p Dir is created on first store if missing. \p MaxEntries > 0 bounds
  /// the number of cached artifacts: stores beyond the bound evict the
  /// least-recently-used digest, tracked over what this instance stored or
  /// served (files it never touched are left alone).
  explicit PlanCache(std::string Dir, int MaxEntries = 0);

  /// The artifact path digest \p Key addresses (inside the cache dir).
  std::string pathFor(const PlanKey &Key) const;

  /// Loads the cached plan for \p Key. Returns std::nullopt on miss —
  /// including a present-but-corrupt file or a digest collision whose
  /// stored key disagrees (counted under plan_cache.invalid).
  std::optional<ExecutionPlan> load(const PlanKey &Key);

  /// Serializes \p Plan under \p Key, evicting over capacity.
  bool store(const PlanKey &Key, const ExecutionPlan &Plan);

  /// The cache-through compile: load, or run \p Compute once and store.
  /// Single-flight per digest — concurrent callers with the same key get
  /// the one computed plan.
  ExecutionPlan getOrCompute(const PlanKey &Key,
                             const std::function<ExecutionPlan()> &Compute);

  const std::string &dir() const { return Dir; }
  size_t hits() const { return Hits.load(std::memory_order_relaxed); }
  size_t misses() const { return Misses.load(std::memory_order_relaxed); }
  size_t stores() const { return Stores.load(std::memory_order_relaxed); }
  size_t evictions() const {
    return Evictions.load(std::memory_order_relaxed);
  }

private:
  /// One in-flight or completed compile, shared by racing callers.
  struct Entry {
    Entry() : Result(Done.get_future().share()) {}
    std::promise<std::shared_ptr<const ExecutionPlan>> Done;
    std::shared_future<std::shared_ptr<const ExecutionPlan>> Result;
  };

  /// Moves \p Digest to most-recently-used and evicts over capacity.
  /// Caller holds Mu.
  void touchLocked(const std::string &Digest);
  void evictOverCapacityLocked();

  std::string Dir;
  int MaxEntries;
  std::mutex Mu;
  /// Single-flight table, keyed by digest.
  std::map<std::string, std::shared_ptr<Entry>> InFlight;
  /// LRU order of digests this instance has stored or served (front =
  /// least recently used).
  std::list<std::string> LruOrder;
  std::map<std::string, std::list<std::string>::iterator> LruPos;

  std::atomic<size_t> Hits{0};
  std::atomic<size_t> Misses{0};
  std::atomic<size_t> Stores{0};
  std::atomic<size_t> Evictions{0};
};

} // namespace pf

#endif // PIMFLOW_PLAN_PLANCACHE_H
