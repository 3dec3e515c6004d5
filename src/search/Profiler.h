//===- search/Profiler.h - Candidate profiling ------------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Profiling for the execution-mode and task-size search (Section 4.2.2):
/// the time of every candidate configuration — a layer on the GPU, on PIM
/// or at a GPU/PIM split ratio, or a pipelined chain — on the simulated
/// system, as the layer's micrograph (search/LayerExtract.h) transformed
/// and run on the execution engine would report it.
///
/// Only pipeline samples build and run that micrograph. The others are
/// priced from the source graph's node specs, by the engine's own rules:
///  * a GPU sample is the engine's duration of the node (nothing for a
///    fused epilogue, else its latency): the micrograph's stage, fused
///    activation and sink cost nothing and share the GPU, so its makespan
///    is that one duration;
///  * a PIM sample is (sync + kernel plan ns) + sync: the staged input
///    reaches the PIM node one handoff sync after time 0 and its result
///    reaches the GPU-side activation or sink one sync after the kernel,
///    and every GPU node is free, so contention's second pass changes
///    nothing;
///  * an MD-DP sample runs the engine's list scheduler (makespanNs) over
///    the split micrograph's nodes in node-id order: stages, activation,
///    sink, slices, the two parts and the join, each priced through the
///    shape-level forms of the engine's per-node rules, with the split's
///    geometry from transform/MdDpSplitPass.h's mdDpCut.
/// Every price therefore equals the micrograph's time as a double; a
/// PIMFLOW_CHECKED build also measures each priced sample on its
/// micrograph and aborts on any bit difference.
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

  /// Memoized sample.
  double measure(const std::string &Key,
                 const std::function<double()> &Compute);

  /// Rewrites a micrograph in place given the ids of its chain nodes;
  /// false when the chain cannot take the rewrite.
  using MicroTransform =
      std::function<bool(Graph &, const std::vector<NodeId> &)>;

  /// The engine's time of \p Chain's micrograph after \p Transform, or -1
  /// when the transform declines.
  double micrographNs(const Graph &G, const std::vector<NodeId> &Chain,
                      const MicroTransform &Transform) const;

  /// \p Priced, the sample \p Key of \p Chain. A PIMFLOW_CHECKED build
  /// first measures the sample on its micrograph and aborts unless the two
  /// agree bit for bit.
  double crossChecked(const std::string &Key, double Priced,
                      const Graph &G, const std::vector<NodeId> &Chain,
                      const MicroTransform &Transform) const;

  /// The PIM sample of candidate \p Id, priced from its spec.
  double pricePim(const Graph &G, NodeId Id) const;

  /// The MD-DP sample of \p Chain (a candidate and its epilogue, if any) at
  /// \p RatioGpu, priced from the split's node specs.
  double priceMdDp(const Graph &G, const std::vector<NodeId> &Chain,
                   double RatioGpu) const;

  SystemConfig Config;
  ExecutionEngine Engine;
  /// Plans PIM kernels as a fault-free engine run does.
  PimCommandGenerator Gen;
  std::string ConfigSig;
  /// Measured time by signature.
  std::unordered_map<std::string, double> Memo;
  size_t Hits = 0;
  size_t Misses = 0;
};

} // namespace pf

#endif // PIMFLOW_SEARCH_PROFILER_H
