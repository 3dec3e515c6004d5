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
/// Results are memoized by a structural key, mirroring the artifact's
/// metadata log of profiling results: mobile CNNs repeat identical blocks
/// many times, so the memo removes most of the (simulated-)hardware
/// measurement cost. The key packs, as varints, exactly what the sample's
/// profile-log row prints after the configuration, which is constant per
/// profiler and prints as the plan key's systemConfigPlanSig, so rows of
/// two configurations that price any sample differently never match:
/// the mode (gpu, pim, the MD-DP GPU share at the two decimals the row
/// prints, or the pipeline stage count) and, per chain node, its kind,
/// Conv2d or pool window and input and output shapes. Two samples share
/// an entry exactly when their rows are equal. The key is built in a
/// buffer the profiler reuses, so a hit allocates nothing for it. Row text
/// ("<config>|<mode>|<nodes>") is rendered from a key only to write the
/// log, to name a sample a checked build rejects, and to look a sample up
/// among the rows a loaded log holds, which stay text: a log may hold
/// other configurations' rows and arbitrary rows, and saveCache writes
/// them back unchanged.
///
/// A Profiler expects one caller at a time: the search profiles its
/// candidates serially (docs/INTERNALS.md section 7).
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_SEARCH_PROFILER_H
#define PIMFLOW_SEARCH_PROFILER_H

#include <cstdint>
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
  /// "row<TAB>ns" lines sorted by row name, so the file does not depend on
  /// the order the samples were measured in. Loaded rows no sample printed
  /// as are written back as they were read.
  bool saveCache(const std::string &Path) const;
  /// Loads a memo table previously written by saveCache. All or nothing:
  /// when the file is missing, its header is missing or disagrees with
  /// the rows' byte count or checksum, or any non-blank row lacks a tab or
  /// has a time that is not a full-token finite number, nothing is loaded
  /// and the result is false (a damaged cache is a miss, like the plan
  /// cache's corrupt files). A loaded row replaces the time of a sample
  /// already measured under the same row name.
  bool loadCache(const std::string &Path);

private:
  /// What a sample measures: the mode field of its key and row.
  enum class Mode : uint8_t { Gpu, Pim, MdDp, Pipeline };

  /// Packs into Key the memo key of \p Chain sampled in mode \p M, whose
  /// argument \p Arg is the MD-DP GPU share in hundredths or the pipeline
  /// stage count.
  void packKey(const Graph &G, const std::vector<NodeId> &Chain, Mode M,
               uint64_t Arg = 0);

  /// The profile-log row name of packed key \p K.
  std::string rowOf(std::string_view K) const;

  /// The sample keyed by Key: its memo entry, else the loaded row it
  /// prints as, else \p Compute() stored under Key.
  template <typename ComputeFn> double measure(const ComputeFn &Compute);

  /// Rewrites a micrograph in place given the ids of its chain nodes;
  /// false when the chain cannot take the rewrite.
  using MicroTransform =
      std::function<bool(Graph &, const std::vector<NodeId> &)>;

  /// \p E's time of \p Chain's micrograph after \p Transform, or -1 when
  /// the transform declines.
  static double micrographNs(ExecutionEngine &E, const Graph &G,
                             const std::vector<NodeId> &Chain,
                             const MicroTransform &Transform);

  /// \p Priced, the sample Key of \p Chain. A PIMFLOW_CHECKED build first
  /// measures the sample on its micrograph, on an engine of its own, and
  /// aborts unless the two agree bit for bit.
  double crossChecked(double Priced, const Graph &G,
                      const std::vector<NodeId> &Chain,
                      const MicroTransform &Transform) const;

  /// The PIM sample of candidate \p Id, priced from its spec.
  double pricePim(const Graph &G, NodeId Id) const;

  /// The MD-DP sample of \p Chain (a candidate and its epilogue, if any) at
  /// \p RatioGpu, priced from the split's node specs.
  double priceMdDp(const Graph &G, const std::vector<NodeId> &Chain,
                   double RatioGpu) const;

  SystemConfig Config;
  /// Runs the pipeline samples, planning each distinct PIM kernel once.
  ExecutionEngine Engine;
  /// Plans PIM kernels as a fault-free engine run does.
  PimCommandGenerator Gen;
  /// The configuration part of every row name: systemConfigPlanSig of
  /// Config, rendered with the first row.
  mutable std::string ConfigSig;
  /// The key of the sample being measured.
  std::string Key;
  /// Measured time by packed key.
  std::unordered_map<std::string, double> Memo;
  /// Rows loadCache read that no sample has printed as yet, by row name.
  std::unordered_map<std::string, double> Loaded;
  size_t Hits = 0;
  size_t Misses = 0;
};

} // namespace pf

#endif // PIMFLOW_SEARCH_PROFILER_H
