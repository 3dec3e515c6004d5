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
/// A plan keeps the search's two records, the segment covering and every
/// covered node's profiled options; derivePlan computes the rest from them
/// for a fresh search and a parsed artifact alike, so the two cannot
/// disagree.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_SEARCH_SEARCHENGINE_H
#define PIMFLOW_SEARCH_SEARCHENGINE_H

#include <vector>

#include "search/CostProvider.h"
#include "search/Profiler.h"
#include "support/Diagnostics.h"
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

/// One profiled option of a node (search explainability): what the
/// candidate-profiling pre-pass measured before the DP chose.
struct CandidateOption {
  SegmentMode Mode = SegmentMode::GpuNode;
  /// The GPU fraction: 1 for the GPU option, 0 for full PIM, the sampled
  /// share for an MD-DP option.
  double RatioGpu = 1.0;
  /// Profiled time of the node under this option, in isolation.
  double Ns = 0.0;
};

/// Per-node record of everything the search considered and what the DP
/// chose — the raw material of the perf report's `decisions` array.
struct SearchDecision {
  NodeId Id = InvalidNode;
  /// Every option profiled for this node: the GPU option (gpu:1) first,
  /// then, for a PIM candidate, full PIM (pim:0) and the MD-DP ratio grid
  /// in sweep order, auto-tuning's refined ratios last. Every other field
  /// is derived (derivePlan).
  std::vector<CandidateOption> Candidates;
  /// What the DP's segment covering assigned to this node: its segment's
  /// mode and GPU fraction.
  SegmentMode ChosenMode = SegmentMode::GpuNode;
  double ChosenRatioGpu = 1.0;
  /// The chosen option's time share for this node (a pipeline segment's
  /// time is split over its chain proportionally to GPU-baseline times,
  /// the same attribution rule the CONV-layer metric uses).
  double ChosenNs = 0.0;

  /// The node was a PIM-offloading candidate (profiled beyond GPU-only).
  bool pimCandidate() const { return Candidates.size() > 1; }
  /// The GPU-only reference cost: the GPU option's time.
  double gpuOnlyNs() const { return Candidates.front().Ns; }
  /// A candidate's full-PIM time: its second option's.
  double pimNs() const { return Candidates[1].Ns; }
  /// A candidate's best option over the whole ratio range, full GPU and
  /// full PIM included, whatever the DP was allowed to choose: the first
  /// option no later one beats strictly (Fig. 10's per-layer view).
  const CandidateOption &bestMdDp() const;

  /// Marginal gain of the chosen option vs. running this node on the GPU
  /// (positive when the DP found something faster).
  double gainNs() const { return gpuOnlyNs() - ChosenNs; }
};

/// The search result.
struct ExecutionPlan {
  std::vector<SegmentPlan> Segments;
  /// One decision record per covered node, in segment order (which is
  /// topological order).
  std::vector<SearchDecision> Decisions;
  /// DP objective: the segment times summed from the last to the first.
  double PredictedNs = 0.0;
};

/// Derives each decision's Chosen* fields from its node's segment, and
/// PredictedNs. \p Plan holds one decision per segment node, in segment
/// order, each with its GPU option first (parsePlanArtifact enforces it).
void derivePlan(ExecutionPlan &Plan);

/// Split-ratio grid step (the paper uses 10%; Section 5's footnote notes
/// 2% gains only ~1%).
inline constexpr double SplitRatioStep = 0.1;
/// Step of SearchOptions::RefineRatios's local refinement around the
/// coarse optimum.
inline constexpr double RefinedRatioStep = 0.02;

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
  /// The paper's future-work auto-tuning: after the coarse grid sweep,
  /// locally refine the best ratio at RefinedRatioStep granularity (one
  /// extra round of samples around the coarse optimum instead of a full
  /// fine grid).
  bool RefineRatios = false;
};

/// Algorithm 1 driver.
class SearchEngine {
public:
  SearchEngine(CostProvider &P, SearchOptions Options)
      : Prof(P), Options(Options) {}

  /// Runs the search over \p G (not modified).
  ExecutionPlan search(const Graph &G);

  /// Applies \p Plan to \p G in place: annotates devices and runs the
  /// MD-DP / pipelining passes. \p Plan must have been computed on \p G,
  /// or pass canApply.
  static void apply(Graph &G, const ExecutionPlan &Plan);

  /// Whether apply can take \p Plan on \p G, for a run under \p Config
  /// whose search chose from \p Search: every live node lies in exactly
  /// one segment; a pim, md-dp or pipeline segment needs PIM channels in
  /// \p Config and a mode \p Search allows (full offload, splits,
  /// pipelines); a pim or md-dp segment holds one PIM candidate; an md-dp
  /// ratio splits it across both devices (mdDpCut); a pipeline segment is
  /// a chain, with its pattern, that findPipelineCandidates returns and
  /// canPipeline accepts. Reports each violation as plan.mismatch into
  /// \p DE. Replays check a plan from disk with it.
  static bool canApply(const Graph &G, const ExecutionPlan &Plan,
                       const SystemConfig &Config,
                       const SearchOptions &Search, DiagnosticEngine &DE);

private:
  CostProvider &Prof;
  SearchOptions Options;
};

} // namespace pf

#endif // PIMFLOW_SEARCH_SEARCHENGINE_H
