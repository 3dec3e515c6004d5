//===- search/SearchEngine.cpp - Execution mode & task size search -------===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "search/SearchEngine.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "ir/Verifier.h"
#include "obs/Counters.h"
#include "obs/Trace.h"
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

  // Per-node profile slots (lines 1-7 and 16-22 of Algorithm 1), plus the
  // pipelining candidates (lines 8-15) whose chain occupies consecutive
  // positions in the sequence (the DP covers the sequence by contiguous
  // segments). The pre-pass below fills every slot; the decisions then run
  // over warm values.
  struct NodeProfile {
    bool Candidate = false;
    double GpuNs = 0.0;
    double PimNs = 0.0;
    std::vector<double> SplitNs; ///< Parallel to Grid.
  };
  std::vector<NodeProfile> Profiles(N);
  for (size_t I = 0; I < N; ++I) {
    Profiles[I].Candidate = isPimCandidate(G.node(Seq[I])) && HasPim;
    if (Profiles[I].Candidate)
      Profiles[I].SplitNs.assign(Grid.size(), 0.0);
  }

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
      Profiles[I].GpuNs = Prof.gpuNodeNs(G, Seq[I]);
      obs::addCounter("search.candidates_evaluated");
      if (!Profiles[I].Candidate)
        continue;
      Profiles[I].PimNs = Prof.pimNodeNs(G, Seq[I]);
      obs::addCounter("search.candidates_evaluated");
      for (size_t R = 0; R < Grid.size(); ++R) {
        Profiles[I].SplitNs[R] = Prof.mdDpNs(G, Seq[I], Grid[R]);
        obs::addCounter("search.candidates_evaluated");
      }
    }
    for (PipeOption &P : Pipes)
      P.Ns = Prof.pipelineNs(G, P.Cand.Chain, Options.PipelineStages);
  }

  // Chains that cannot pipeline at this stage count profiled negative.
  Pipes.erase(std::remove_if(Pipes.begin(), Pipes.end(),
                             [](const PipeOption &P) { return P.Ns < 0.0; }),
              Pipes.end());

  // Decision pass over the warm slots: the best single-node segment per
  // node given the allowed option set. Comparison order matches the
  // historical sweep, so ties break identically.
  struct NodeOption {
    SegmentMode Mode = SegmentMode::GpuNode;
    double RatioGpu = 1.0;
    double Ns = 0.0;
  };
  std::vector<NodeOption> BestNode(N);
  // Refined-ratio samples profiled during selection (only the auto-tuning
  // path adds any); they join the decision records so every profiled point
  // is explainable, not just the coarse grid.
  std::vector<std::vector<CandidateOption>> Refined(N);

  {
  PF_TRACE_SCOPE_CAT("search.select_nodes", "search");
  for (size_t I = 0; I < N; ++I) {
    NodeOption Opt;
    Opt.Ns = Profiles[I].GpuNs;
    Opt.Mode = SegmentMode::GpuNode;

    if (Profiles[I].Candidate) {
      LayerProfile LP;
      LP.Id = Seq[I];
      LP.GpuNs = Opt.Ns;
      LP.PimNs = Profiles[I].PimNs;
      LP.BestMdDpNs = LP.GpuNs;
      LP.BestRatioGpu = 1.0;

      if (Options.AllowFullOffload && LP.PimNs < Opt.Ns) {
        Opt.Ns = LP.PimNs;
        Opt.Mode = SegmentMode::FullPim;
        Opt.RatioGpu = 0.0;
      }
      if (LP.PimNs < LP.BestMdDpNs) {
        LP.BestMdDpNs = LP.PimNs;
        LP.BestRatioGpu = 0.0;
      }
      if (Options.AllowSplit) {
        auto Consider = [&](double R, double Ns) {
          if (Ns < LP.BestMdDpNs) {
            LP.BestMdDpNs = Ns;
            LP.BestRatioGpu = R;
          }
          if (Ns < Opt.Ns) {
            Opt.Ns = Ns;
            Opt.Mode = SegmentMode::MdDp;
            Opt.RatioGpu = R;
          }
        };
        for (size_t R = 0; R < Grid.size(); ++R)
          Consider(Grid[R], Profiles[I].SplitNs[R]);
        // Auto-tuning refinement (the paper's future work): sample around
        // the coarse optimum at the fine step instead of sweeping the
        // whole fine grid. The refinement centers depend on the coarse
        // decision, so these samples profile here, not in the pre-pass.
        if (Options.RefineRatios && Opt.Mode == SegmentMode::MdDp) {
          auto TrySplit = [&](double R) {
            const double Ns = Prof.mdDpNs(G, Seq[I], R);
            obs::addCounter("search.candidates_evaluated");
            Refined[I].push_back(
                CandidateOption{SegmentMode::MdDp, R, Ns});
            Consider(R, Ns);
          };
          const double Center = Opt.RatioGpu;
          for (double D = RefinedRatioStep; D < SplitRatioStep - 1e-9;
               D += RefinedRatioStep) {
            if (Center - D > 1e-9)
              TrySplit(Center - D);
            if (Center + D < 1.0 - 1e-9)
              TrySplit(Center + D);
          }
        }
      }
      Plan.Layers.push_back(LP);
    }
    BestNode[I] = Opt;
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

  // Reconstruct the segment covering, recording one decision per node as
  // we go: what was profiled, what the DP chose, and the chosen option's
  // cost — the report's explainability trail.
  auto BaseDecision = [&](size_t I) {
    SearchDecision D;
    D.Id = Seq[I];
    D.PimCandidate = Profiles[I].Candidate;
    D.GpuOnlyNs = Profiles[I].GpuNs;
    D.Candidates.push_back(
        CandidateOption{SegmentMode::GpuNode, 1.0, Profiles[I].GpuNs});
    if (Profiles[I].Candidate) {
      D.Candidates.push_back(
          CandidateOption{SegmentMode::FullPim, 0.0, Profiles[I].PimNs});
      for (size_t R = 0; R < Grid.size(); ++R)
        D.Candidates.push_back(
            CandidateOption{SegmentMode::MdDp, Grid[R],
                            Profiles[I].SplitNs[R]});
      D.Candidates.insert(D.Candidates.end(), Refined[I].begin(),
                          Refined[I].end());
    }
    return D;
  };
  for (size_t I = 0; I < N;) {
    if (Chosen[I].IsPipe) {
      const PipeOption &P = Pipes[Chosen[I].PipeIdx];
      SegmentPlan S;
      S.Mode = SegmentMode::Pipeline;
      S.Nodes = P.Cand.Chain;
      S.Stages = Options.PipelineStages;
      S.Pattern = P.Cand.Pattern;
      S.PredictedNs = P.Ns;
      // The pipelined segment's time covers the whole chain; split it over
      // the chain proportionally to GPU-baseline times (the CONV-layer
      // metric's attribution rule) so per-node gains stay comparable.
      double ChainGpuNs = 0.0;
      for (size_t Off = 0; Off < P.Len; ++Off)
        ChainGpuNs += Profiles[I + Off].GpuNs;
      for (size_t Off = 0; Off < P.Len; ++Off) {
        SearchDecision D = BaseDecision(I + Off);
        D.ChosenMode = SegmentMode::Pipeline;
        D.ChosenNs = ChainGpuNs > 0.0
                         ? P.Ns * Profiles[I + Off].GpuNs / ChainGpuNs
                         : P.Ns / static_cast<double>(P.Len);
        Plan.Decisions.push_back(std::move(D));
      }
      Plan.Segments.push_back(std::move(S));
      I += P.Len;
      continue;
    }
    const NodeOption &O = BestNode[I];
    SegmentPlan S;
    S.Mode = O.Mode;
    S.Nodes = {Seq[I]};
    S.RatioGpu = O.RatioGpu;
    S.PredictedNs = O.Ns;
    SearchDecision D = BaseDecision(I);
    D.ChosenMode = O.Mode;
    D.ChosenRatioGpu = O.RatioGpu;
    D.ChosenNs = O.Ns;
    Plan.Decisions.push_back(std::move(D));
    Plan.Segments.push_back(std::move(S));
    ++I;
  }
  obs::addCounter("search.decisions",
                  static_cast<int64_t>(Plan.Decisions.size()));
  Plan.PredictedNs = Best[0];
  obs::addCounter("search.segments",
                  static_cast<int64_t>(Plan.Segments.size()));
  if (obs::activeRegistry().enabled())
    for (const SegmentPlan &S : Plan.Segments)
      obs::recordMetric("search.segment_predicted_us", S.PredictedNs / 1e3);
  return Plan;
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
