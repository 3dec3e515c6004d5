//===- search/SearchEngine.h - Execution mode & task size search -*- C++ -*-=//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Algorithm 1: the execution-mode and task-size search. Every PIM-candidate
/// layer is profiled at 10% GPU/PIM split-ratio intervals (including the
/// full-GPU and full-PIM endpoints); every matched pipelining subgraph is
/// profiled at the configured stage count; and a dynamic program over the
/// topologically sorted node sequence picks the optimal covering of the
/// graph by {GPU, full-offload, MD-DP, pipelined} segments.
///
/// The mechanism variants of the evaluation restrict the option set:
/// Newton+/Newton++ choose only between full GPU and full PIM per node,
/// PIMFlow-md adds the split ratios, PIMFlow-pl adds pipelining instead,
/// and PIMFlow allows everything.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_SEARCH_SEARCHENGINE_H
#define PIMFLOW_SEARCH_SEARCHENGINE_H

#include <vector>

#include "search/CostProvider.h"
#include "search/Profiler.h"
#include "transform/PatternMatch.h"

namespace pf {

/// How one segment of the node sequence executes.
enum class SegmentMode : uint8_t {
  GpuNode,  ///< Single node, GPU.
  FullPim,  ///< Single node fully offloaded to PIM.
  MdDp,     ///< Single node split across GPU and PIM.
  Pipeline, ///< A chain executed as pipeline stages.
};

/// Returns "gpu"/"pim"/"md-dp"/"pipeline".
const char *segmentModeName(SegmentMode M);

/// One chosen segment.
struct SegmentPlan {
  SegmentMode Mode = SegmentMode::GpuNode;
  std::vector<NodeId> Nodes;
  /// MD-DP: chosen fraction of work on the GPU (0.1 .. 0.9).
  double RatioGpu = 1.0;
  /// Pipeline: stage count and matched pattern.
  int Stages = 2;
  PipelinePattern Pattern = PipelinePattern::PwDw;
  /// Profiled time of this segment in isolation.
  double PredictedNs = 0.0;
};

/// Per-candidate-layer profile, kept for the evaluation's layerwise
/// breakdowns (Fig. 10) and the ratio distribution (Table 2).
struct LayerProfile {
  NodeId Id = InvalidNode;
  double GpuNs = 0.0;
  double PimNs = 0.0;
  double BestMdDpNs = 0.0;
  double BestRatioGpu = 1.0; ///< Over the profiled 10% grid.
};

/// One profiled option of a node (search explainability): what the
/// candidate-profiling pre-pass measured before the DP chose.
struct CandidateOption {
  SegmentMode Mode = SegmentMode::GpuNode;
  /// MD-DP candidates: the sampled GPU fraction.
  double RatioGpu = 1.0;
  /// Profiled time of the node under this option, in isolation.
  double Ns = 0.0;
};

/// Per-node record of everything the search considered and what the DP
/// chose — the raw material of the perf report's `decisions` array.
struct SearchDecision {
  NodeId Id = InvalidNode;
  /// The node was a PIM-offloading candidate (profiled beyond GPU-only).
  bool PimCandidate = false;
  /// Every option profiled for this node (GPU first, then full-PIM, then
  /// the MD-DP ratio grid in sweep order). Non-candidates have only the
  /// GPU entry.
  std::vector<CandidateOption> Candidates;
  /// What the DP's segment covering assigned to this node.
  SegmentMode ChosenMode = SegmentMode::GpuNode;
  double ChosenRatioGpu = 1.0;
  /// The chosen option's time share for this node (a pipeline segment's
  /// time is split over its chain proportionally to GPU-baseline times,
  /// the same attribution rule the CONV-layer metric uses).
  double ChosenNs = 0.0;
  /// The GPU-only reference cost.
  double GpuOnlyNs = 0.0;

  /// Marginal gain of the chosen option vs. running this node on the GPU
  /// (positive when the DP found something faster).
  double gainNs() const { return GpuOnlyNs - ChosenNs; }
};

/// The search result.
struct ExecutionPlan {
  std::vector<SegmentPlan> Segments;
  std::vector<LayerProfile> Layers;
  /// One decision record per covered node, in topological order.
  std::vector<SearchDecision> Decisions;
  /// DP objective: sum of profiled segment times.
  double PredictedNs = 0.0;
};

/// Option set available to the search (mechanism-dependent).
struct SearchOptions {
  /// Permit MD-DP splits at the interior ratios (0.1 .. 0.9).
  bool AllowSplit = true;
  /// Permit pipelined subgraphs.
  bool AllowPipeline = true;
  /// Permit full offloading of a node to PIM.
  bool AllowFullOffload = true;
  /// Pipeline stage count.
  int PipelineStages = 2;
  /// Split-ratio grid step (the paper uses 10%; Section 5's footnote notes
  /// 2% gains only ~1%).
  double RatioStep = 0.1;
  /// The paper's future-work auto-tuning: after the coarse grid sweep,
  /// locally refine the best ratio at RefinedStep granularity (one extra
  /// round of samples around the coarse optimum instead of a full fine
  /// grid).
  bool RefineRatios = false;
  double RefinedStep = 0.02;
};

/// Algorithm 1 driver.
class SearchEngine {
public:
  SearchEngine(CostProvider &P, SearchOptions Options)
      : Prof(P), Options(Options) {}

  /// Runs the search over \p G (not modified).
  ExecutionPlan search(const Graph &G);

  /// Applies \p Plan to \p G in place: annotates devices and runs the
  /// MD-DP / pipelining passes. \p Plan must have been computed on \p G.
  static void apply(Graph &G, const ExecutionPlan &Plan);

private:
  CostProvider &Prof;
  SearchOptions Options;
};

} // namespace pf

#endif // PIMFLOW_SEARCH_SEARCHENGINE_H
