//===- search/Profiler.h - Candidate profiling ------------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hardware-measurement-based profiling for the execution-mode and
/// task-size search (Section 4.2.2): every candidate configuration — a
/// layer at a GPU/PIM split ratio, or a pipelined chain — is extracted into
/// a micrograph, transformed, and timed on the simulated system.
///
/// Results are memoized by a structural signature (layer shapes, attributes,
/// mode, and system configuration), mirroring the artifact's metadata log
/// of profiling results: mobile CNNs repeat identical blocks many times, so
/// the cache removes most of the (simulated-)hardware measurement cost.
///
/// A Profiler expects one caller at a time: the search profiles its
/// candidates serially (docs/INTERNALS.md section 7).
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_SEARCH_PROFILER_H
#define PIMFLOW_SEARCH_PROFILER_H

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "runtime/ExecutionEngine.h"
#include "runtime/SystemConfig.h"
#include "search/CostProvider.h"

namespace pf {

/// Profiles candidate execution modes on a fixed system configuration.
class Profiler : public CostProvider {
public:
  explicit Profiler(const SystemConfig &Config);

  const SystemConfig &config() const override { return Config; }

  /// GPU-only time of node \p Id (the ratio-1.0 sample).
  double gpuNodeNs(const Graph &G, NodeId Id) override;

  /// Full-offload time of node \p Id on PIM, including handoffs (the
  /// ratio-0.0 sample).
  double pimNodeNs(const Graph &G, NodeId Id) override;

  /// MD-DP time of node \p Id at \p RatioGpu (fraction of work on GPU).
  double mdDpNs(const Graph &G, NodeId Id, double RatioGpu) override;

  /// Pipelined time of \p Chain with \p Stages stages. Returns a negative
  /// value when the chain cannot be pipelined at this stage count.
  double pipelineNs(const Graph &G, const std::vector<NodeId> &Chain,
                    int Stages) override;

  /// Sum of per-node GPU times of \p Chain (the chain's baseline).
  double chainGpuNs(const Graph &G, const std::vector<NodeId> &Chain);

  size_t cacheHits() const { return Hits; }
  size_t cacheMisses() const { return Misses; }

  /// Serializes the memo table to \p Path: a "pimflow-profile v1 bytes
  /// <n> checksum <fnv1a64>" header (the plan artifact's shape) over
  /// "signature<TAB>ns" lines sorted by signature, so the file does not
  /// depend on the order the signatures were measured in.
  bool saveCache(const std::string &Path) const;
  /// Loads a memo table previously written by saveCache. All or nothing:
  /// when the file is missing, its header is missing or disagrees with
  /// the rows' byte count or checksum, or any non-blank row lacks a tab or
  /// has a time that is not a full-token finite number, nothing is loaded
  /// and the result is false (a damaged cache is a miss, like the plan
  /// cache's corrupt files).
  bool loadCache(const std::string &Path);

private:
  /// Structural signature of a chain under this config: the memo key and
  /// the profile log's row name.
  std::string signature(const Graph &G, const std::vector<NodeId> &Chain,
                        std::string_view Mode) const;

  /// Memoized micrograph measurement.
  double measure(const std::string &Key,
                 const std::function<double()> &Compute);

  SystemConfig Config;
  ExecutionEngine Engine;
  std::string ConfigSig;
  /// Measured time by signature.
  std::unordered_map<std::string, double> Memo;
  size_t Hits = 0;
  size_t Misses = 0;
};

} // namespace pf

#endif // PIMFLOW_SEARCH_PROFILER_H
