//===- search/SearchEngine.cpp - Execution mode & task size search -------===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "search/SearchEngine.h"

#include <algorithm>
#include <map>
#include <optional>

#include "ir/Verifier.h"
#include "obs/Counters.h"
#include "obs/Trace.h"
#include "support/Format.h"
#include "transform/MdDpSplitPass.h"
#include "transform/PipelinePass.h"

using namespace pf;

const char *pf::segmentModeName(SegmentMode M) {
  switch (M) {
  case SegmentMode::GpuNode:
    return "gpu";
  case SegmentMode::FullPim:
    return "pim";
  case SegmentMode::MdDp:
    return "md-dp";
  case SegmentMode::Pipeline:
    return "pipeline";
  }
  pf_unreachable("unknown segment mode");
}

ExecutionPlan SearchEngine::search(const Graph &G) {
  PF_TRACE_SCOPE_CAT("search", "search");
  // The profiler prices samples from the graph's stored shapes, which are
  // what its micrographs infer only in a well-formed graph: a checked
  // build, which compares the two, verifies the search's input first.
  PF_VERIFY_PASS(G, "before the search");
  const std::vector<NodeId> Seq = G.topoOrder();
  const size_t N = Seq.size();
  // Range hint (also calms GCC's alloc-size analysis on the DP arrays).
  PF_ASSERT(N < (size_t(1) << 32), "node count exceeds search limits");
  std::map<NodeId, size_t> Pos;
  for (size_t I = 0; I < N; ++I)
    Pos[Seq[I]] = I;

  ExecutionPlan Plan;
  const bool HasPim = Prof.config().hasPim();

  // The interior split-ratio grid. The sampled ratios are part of the
  // profile signatures, so this accumulation must stay as it is.
  std::vector<double> Grid;
  if (Options.AllowSplit)
    for (double R = SplitRatioStep; R < 1.0 - 1e-9; R += SplitRatioStep)
      Grid.push_back(R);

  // One decision per node, in sequence order, collects the node's profiled
  // options (lines 1-7 and 16-22 of Algorithm 1); the pipelining candidates
  // (lines 8-15) are those whose chain occupies consecutive positions in
  // the sequence (the DP covers the sequence by contiguous segments).
  Plan.Decisions.resize(N);
  struct PipeOption {
    PipelineCandidate Cand;
    size_t Begin = 0;
    size_t Len = 0;
    double Ns = 0.0;
  };
  std::vector<PipeOption> Pipes;
  if (Options.AllowPipeline && HasPim) {
    for (const PipelineCandidate &Cand : findPipelineCandidates(G)) {
      obs::addCounter("search.pipeline_candidates");
      const size_t Begin = Pos.at(Cand.Chain.front());
      bool Consecutive = true;
      for (size_t I = 0; I < Cand.Chain.size(); ++I)
        Consecutive &= Begin + I < N && Seq[Begin + I] == Cand.Chain[I];
      if (Consecutive)
        Pipes.push_back(PipeOption{Cand, Begin, Cand.Chain.size(), 0.0});
    }
  }

  // Candidate-profiling pre-pass: per node its GPU sample, then for a
  // candidate its PIM sample and the ratio grid; then every pipeline chain.
  {
    PF_TRACE_SCOPE_CAT("search.profile_candidates", "search");
    for (size_t I = 0; I < N; ++I) {
      SearchDecision &D = Plan.Decisions[I];
      D.Id = Seq[I];
      auto Sample = [&](SegmentMode Mode, double RatioGpu, double Ns) {
        D.Candidates.push_back(CandidateOption{Mode, RatioGpu, Ns});
        obs::addCounter("search.candidates_evaluated");
      };
      Sample(SegmentMode::GpuNode, 1.0, Prof.gpuNodeNs(G, Seq[I]));
      if (!HasPim || !isPimCandidate(G.node(Seq[I])))
        continue;
      Sample(SegmentMode::FullPim, 0.0, Prof.pimNodeNs(G, Seq[I]));
      for (double R : Grid)
        Sample(SegmentMode::MdDp, R, Prof.mdDpNs(G, Seq[I], R));
    }
    for (PipeOption &P : Pipes)
      P.Ns = Prof.pipelineNs(G, P.Cand.Chain, Options.PipelineStages);
  }

  // Chains that cannot pipeline at this stage count profiled negative.
  Pipes.erase(std::remove_if(Pipes.begin(), Pipes.end(),
                             [](const PipeOption &P) { return P.Ns < 0.0; }),
              Pipes.end());

  // Decision pass over the profiled options: the best single-node segment
  // per node given the allowed option set, the first option no later
  // allowed one beats strictly (the options list in sweep order, so ties
  // break as the sweep does).
  std::vector<CandidateOption> BestNode(N);
  {
  PF_TRACE_SCOPE_CAT("search.select_nodes", "search");
  for (size_t I = 0; I < N; ++I) {
    std::vector<CandidateOption> &C = Plan.Decisions[I].Candidates;
    size_t Best = 0;
    auto Scan = [&](size_t From) {
      for (size_t K = From; K < C.size(); ++K)
        if ((C[K].Mode != SegmentMode::FullPim || Options.AllowFullOffload) &&
            C[K].Ns < C[Best].Ns)
          Best = K;
    };
    Scan(1);
    // Auto-tuning refinement (the paper's future work): sample around the
    // coarse optimum at the fine step instead of sweeping the whole fine
    // grid. The refinement centers depend on the coarse decision, so these
    // samples profile here, not in the pre-pass, and join the node's
    // options so every profiled point is explainable.
    if (Options.RefineRatios && C[Best].Mode == SegmentMode::MdDp) {
      const size_t Coarse = C.size();
      const double Center = C[Best].RatioGpu;
      auto TrySplit = [&](double R) {
        C.push_back(CandidateOption{SegmentMode::MdDp, R,
                                    Prof.mdDpNs(G, Seq[I], R)});
        obs::addCounter("search.candidates_evaluated");
      };
      for (double D = RefinedRatioStep; D < SplitRatioStep - 1e-9;
           D += RefinedRatioStep) {
        if (Center - D > 1e-9)
          TrySplit(Center - D);
        if (Center + D < 1.0 - 1e-9)
          TrySplit(Center + D);
      }
      Scan(Coarse);
    }
    BestNode[I] = C[Best];
  }
  } // search.select_nodes

  // Dynamic program over the sequence (lines 23-29): Best[I] = cheapest
  // covering of Seq[I..N).
  PF_TRACE_SCOPE_CAT("search.dp", "search");
  obs::addCounter("search.dp_states", static_cast<int64_t>(N) + 1);
  constexpr double Inf = 1e300;
  std::vector<double> Best(N + 1, Inf);
  struct Choice {
    bool IsPipe = false;
    size_t PipeIdx = 0;
  };
  std::vector<Choice> Chosen;
  Chosen.resize(N);
  Best[N] = 0.0;
  for (size_t I = N; I-- > 0;) {
    Best[I] = BestNode[I].Ns + Best[I + 1];
    Chosen[I] = Choice{};
    for (size_t P = 0; P < Pipes.size(); ++P) {
      if (Pipes[P].Begin != I)
        continue;
      const double Cost = Pipes[P].Ns + Best[I + Pipes[P].Len];
      if (Cost < Best[I]) {
        Best[I] = Cost;
        Chosen[I] = Choice{true, P};
      }
    }
  }

  // Reconstruct the segment covering; derivePlan then reads each node's
  // choice off it.
  for (size_t I = 0; I < N;) {
    SegmentPlan S;
    if (Chosen[I].IsPipe) {
      const PipeOption &P = Pipes[Chosen[I].PipeIdx];
      S.Mode = SegmentMode::Pipeline;
      S.Nodes = P.Cand.Chain;
      S.Stages = Options.PipelineStages;
      S.Pattern = P.Cand.Pattern;
      S.PredictedNs = P.Ns;
    } else {
      S.Mode = BestNode[I].Mode;
      S.Nodes = {Seq[I]};
      S.RatioGpu = BestNode[I].RatioGpu;
      S.PredictedNs = BestNode[I].Ns;
    }
    I += S.Nodes.size();
    Plan.Segments.push_back(std::move(S));
  }
  derivePlan(Plan);
  PF_ASSERT(Plan.PredictedNs == Best[0],
            "derived plan total disagrees with the DP");
  obs::addCounter("search.decisions",
                  static_cast<int64_t>(Plan.Decisions.size()));
  obs::addCounter("search.segments",
                  static_cast<int64_t>(Plan.Segments.size()));
  if (obs::activeRegistry().enabled())
    for (const SegmentPlan &S : Plan.Segments)
      obs::recordMetric("search.segment_predicted_us", S.PredictedNs / 1e3);
  return Plan;
}

const CandidateOption &SearchDecision::bestMdDp() const {
  const CandidateOption *Best = &Candidates.front();
  for (const CandidateOption &C : Candidates)
    if (C.Ns < Best->Ns)
      Best = &C;
  return *Best;
}

void pf::derivePlan(ExecutionPlan &Plan) {
  size_t Next = 0;
  for (const SegmentPlan &S : Plan.Segments) {
    const size_t Len = S.Nodes.size();
    // A pipelined segment's time covers the whole chain; split it over the
    // chain proportionally to GPU-baseline times (the CONV-layer metric's
    // attribution rule) so per-node gains stay comparable.
    double ChainGpuNs = 0.0;
    for (size_t Off = 0; Off < Len; ++Off)
      ChainGpuNs += Plan.Decisions[Next + Off].gpuOnlyNs();
    for (size_t Off = 0; Off < Len; ++Off) {
      SearchDecision &D = Plan.Decisions[Next + Off];
      D.ChosenMode = S.Mode;
      D.ChosenRatioGpu = S.RatioGpu;
      if (S.Mode != SegmentMode::Pipeline)
        D.ChosenNs = S.PredictedNs;
      else if (ChainGpuNs > 0.0)
        D.ChosenNs = S.PredictedNs * D.gpuOnlyNs() / ChainGpuNs;
      else
        D.ChosenNs = S.PredictedNs / static_cast<double>(Len);
    }
    Next += Len;
  }
  // The DP's sum, Best[I] = segment + Best[next], from the last segment.
  Plan.PredictedNs = 0.0;
  for (auto S = Plan.Segments.rbegin(); S != Plan.Segments.rend(); ++S)
    Plan.PredictedNs = S->PredictedNs + Plan.PredictedNs;
}

void SearchEngine::apply(Graph &G, const ExecutionPlan &Plan) {
  for (const SegmentPlan &S : Plan.Segments) {
    switch (S.Mode) {
    case SegmentMode::GpuNode:
      G.node(S.Nodes[0]).Dev = Device::Gpu;
      break;
    case SegmentMode::FullPim:
      G.node(S.Nodes[0]).Dev = Device::Pim;
      break;
    case SegmentMode::MdDp: {
      auto Result = applyMdDpSplit(G, S.Nodes[0], S.RatioGpu);
      PF_ASSERT(Result.has_value(),
                "planned MD-DP ratio degenerated during apply");
      (void)Result;
      PF_VERIFY_PASS(G, "after MdDpSplit");
      break;
    }
    case SegmentMode::Pipeline: {
      PipelineSpec Spec;
      Spec.Chain = S.Nodes;
      Spec.NumStages = S.Stages;
      const bool Ok = applyPipeline(G, Spec);
      PF_ASSERT(Ok, "planned pipeline failed to apply");
      (void)Ok;
      PF_VERIFY_PASS(G, "after Pipeline");
      break;
    }
    }
  }
}

bool SearchEngine::canApply(const Graph &G, const ExecutionPlan &Plan,
                            const SystemConfig &Config,
                            const SearchOptions &Search,
                            DiagnosticEngine &DE) {
  const size_t Errors = DE.errorCount();
  auto Mismatch = [&](NodeId Id, const std::string &Message) {
    DE.error(DiagCode::PlanMismatch, formatStr("node %d", Id), Message);
  };
  auto Splits = [&](NodeId Id, double RatioGpu) {
    if (!(RatioGpu > 0.0 && RatioGpu < 1.0)) // NaN included.
      return false;
    const MdDpCut Cut = mdDpCut(G, Id, RatioGpu);
    return !Cut.allPim() && !Cut.allGpu();
  };
  std::vector<int> Covered(G.numNodesIncludingDead(), 0);
  std::optional<std::vector<PipelineCandidate>> Pipelines; // On demand.
  for (const SegmentPlan &S : Plan.Segments) {
    bool Live = true;
    for (NodeId Id : S.Nodes) {
      if (Id < 0 || static_cast<size_t>(Id) >= Covered.size() ||
          G.node(Id).Dead) {
        Mismatch(Id, "the model has no live node with this id");
        Live = false;
      } else if (++Covered[static_cast<size_t>(Id)] == 2) {
        Mismatch(Id, "the node lies in more than one segment");
      }
    }
    const char *Mode = segmentModeName(S.Mode);
    const NodeId First = S.Nodes.empty() ? InvalidNode : S.Nodes[0];
    const bool Allowed =
        S.Mode == SegmentMode::FullPim    ? Search.AllowFullOffload
        : S.Mode == SegmentMode::MdDp     ? Search.AllowSplit
        : S.Mode == SegmentMode::Pipeline ? Search.AllowPipeline
                                          : true;
    if (!Live) {
      continue;
    } else if (S.Mode != SegmentMode::GpuNode && !Config.hasPim()) {
      Mismatch(First, formatStr("%s segments need PIM channels, and the "
                                "configuration has none",
                                Mode));
    } else if (!Allowed) {
      Mismatch(First,
               formatStr("the search options exclude %s segments", Mode));
    } else if (S.Mode == SegmentMode::Pipeline) {
      if (!Pipelines)
        Pipelines = findPipelineCandidates(G);
      if (std::none_of(Pipelines->begin(), Pipelines->end(),
                       [&](const PipelineCandidate &C) {
                         return C.Chain == S.Nodes && C.Pattern == S.Pattern;
                       }))
        Mismatch(First, formatStr("the pipeline segment is no %s chain the "
                                  "model offers for pipelining",
                                  pipelinePatternName(S.Pattern)));
      else if (!canPipeline(G, PipelineSpec{S.Nodes, S.Stages}))
        Mismatch(First, formatStr("the chain does not pipeline in %d stages",
                                  S.Stages));
    } else if (S.Nodes.size() != 1) {
      Mismatch(First, formatStr("%s segments hold one node, this one %zu",
                                Mode, S.Nodes.size()));
    } else if (S.Mode != SegmentMode::GpuNode &&
               !isPimCandidate(G.node(First))) {
      Mismatch(First, formatStr("%s segments hold PIM candidates only, and "
                                "'%s' is none",
                                Mode, G.node(First).Name.c_str()));
    } else if (S.Mode == SegmentMode::MdDp && !Splits(First, S.RatioGpu)) {
      Mismatch(First, formatStr("md-dp ratio %.17g does not split '%s' "
                                "across both devices",
                                S.RatioGpu, G.node(First).Name.c_str()));
    }
  }
  for (const Node &N : G.nodes())
    if (!N.Dead && Covered[static_cast<size_t>(N.Id)] == 0)
      Mismatch(N.Id, formatStr("'%s' lies in no segment", N.Name.c_str()));
  return DE.errorCount() == Errors;
}
