//===- core/PimFlow.cpp - End-to-end compiler facade ------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/PimFlow.h"

#include <map>

#include "ir/ShapeInference.h"
#include "ir/Verifier.h"
#include "obs/Counters.h"
#include "obs/Trace.h"
#include "runtime/Equivalence.h"
#include "runtime/Recovery.h"
#include "support/Format.h"
#include "support/Log.h"
#include "transform/Canonicalize.h"

using namespace pf;

const char *pf::policyName(OffloadPolicy P) {
  switch (P) {
  case OffloadPolicy::GpuOnly:
    return "Baseline";
  case OffloadPolicy::NewtonPlus:
    return "Newton+";
  case OffloadPolicy::NewtonPlusPlus:
    return "Newton++";
  case OffloadPolicy::PimFlowMd:
    return "PIMFlow-md";
  case OffloadPolicy::PimFlowPl:
    return "PIMFlow-pl";
  case OffloadPolicy::PimFlow:
    return "PIMFlow";
  }
  pf_unreachable("unknown offload policy");
}

std::vector<OffloadPolicy> pf::allPolicies() {
  return {OffloadPolicy::GpuOnly,    OffloadPolicy::NewtonPlus,
          OffloadPolicy::NewtonPlusPlus, OffloadPolicy::PimFlowMd,
          OffloadPolicy::PimFlowPl,  OffloadPolicy::PimFlow};
}

SystemConfig pf::systemConfigFor(OffloadPolicy P, const PimFlowOptions &O) {
  SystemConfig C;
  if (P == OffloadPolicy::GpuOnly) {
    C = SystemConfig::gpuOnly(O.TotalChannels);
  } else {
    const bool Optimized = P != OffloadPolicy::NewtonPlus;
    C = SystemConfig::dual(O.PimChannels, Optimized, O.TotalChannels);
  }
  C.MemoryOptimizer = O.MemoryOptimizer;
  C.ModelContention = O.ModelContention;
  if (O.NumGlobalBuffers)
    C.Pim.NumGlobalBuffers = *O.NumGlobalBuffers;
  if (O.GwriteLatencyHiding)
    C.Pim.GwriteLatencyHiding = *O.GwriteLatencyHiding;
  if (O.MaxGranularity)
    C.Codegen.MaxGranularity = *O.MaxGranularity;
  return C;
}

SearchOptions pf::searchOptionsFor(OffloadPolicy P,
                                   const PimFlowOptions &O) {
  SearchOptions S;
  S.PipelineStages = O.PipelineStages;
  S.RefineRatios = O.AutoTuneRatios;
  switch (P) {
  case OffloadPolicy::GpuOnly:
    S.AllowSplit = S.AllowPipeline = S.AllowFullOffload = false;
    break;
  case OffloadPolicy::NewtonPlus:
  case OffloadPolicy::NewtonPlusPlus:
    S.AllowSplit = S.AllowPipeline = false;
    S.AllowFullOffload = true;
    break;
  case OffloadPolicy::PimFlowMd:
    S.AllowSplit = S.AllowFullOffload = true;
    S.AllowPipeline = false;
    break;
  case OffloadPolicy::PimFlowPl:
    S.AllowSplit = false;
    S.AllowFullOffload = S.AllowPipeline = true;
    break;
  case OffloadPolicy::PimFlow:
    S.AllowSplit = S.AllowPipeline = S.AllowFullOffload = true;
    break;
  }
  return S;
}

PimFlow::PimFlow(OffloadPolicy Policy, PimFlowOptions Options)
    : Policy(Policy), Options(Options),
      Config(systemConfigFor(Policy, Options)), Prof(Config) {
  if (!this->Options.PlanCacheDir.empty())
    Cache = std::make_unique<PlanCache>(this->Options.PlanCacheDir);
}

PlanKey PimFlow::planKey(const Graph &Model) const {
  return makePlanKey(Model, Config, searchOptionsFor(Policy, Options),
                     Options.PimFloor);
}

CompileResult PimFlow::compileAndRun(const Graph &Model) {
  PF_TRACE_SCOPE_CAT("pimflow.compile_and_run", "compile");
  PF_LOG_INFO("compiling %s under %s (%zu nodes)", Model.name().c_str(),
              policyName(Policy), Model.numNodes());
  return executePlan(Model, plan(Model));
}

ExecutionPlan PimFlow::plan(const Graph &Model) {
  PF_TRACE_SCOPE_CAT("pimflow.plan", "compile");
  {
    // Reject out-of-range configurations before they configure anything; the
    // factories always produce valid configs, so this only fires for
    // hand-assembled option sets.
    DiagnosticEngine DE;
    if (!validateSystemConfig(Config, DE))
      fatal(formatStr("invalid system configuration:\n%s",
                      DE.render().c_str()));
  }
  auto Fresh = [&] {
    SearchEngine Search(Prof, searchOptionsFor(Policy, Options));
    ExecutionPlan P = Search.search(Model);
    PF_LOG_INFO("search: %zu segments, %.2f us predicted (%zu/%zu profile "
                "cache hits)",
                P.Segments.size(), P.PredictedNs / 1e3, Prof.cacheHits(),
                Prof.cacheHits() + Prof.cacheMisses());
    return P;
  };
  if (Cache)
    return Cache->getOrCompute(planKey(Model), Fresh);
  return Fresh();
}

Graph PimFlow::materialize(const Graph &Model, const ExecutionPlan &Plan) {
  PF_TRACE_SCOPE_CAT("pimflow.materialize", "compile");

  {
    // Replays and serve sessions reach this path without going through
    // plan(), so the configuration gate runs here as well.
    DiagnosticEngine DE;
    if (!validateSystemConfig(Config, DE))
      fatal(formatStr("invalid system configuration:\n%s",
                      DE.render().c_str()));
  }

  Graph G = Model; // Copy, then rewrite in place.

  // Pass-boundary checking: the structural verifier runs at each boundary
  // under PIMFLOW_CHECKED (or Options.VerifyPasses at runtime), and the
  // differential check additionally cross-runs the reference interpreter on
  // original vs. transformed — every PIMFlow rewrite is elementwise exact,
  // so any difference is a transform bug worth stopping for.
  auto AtPassBoundary = [&](const char *When) {
    if (Options.VerifyPasses)
      verifyOrDie(G, When);
    else
      PF_VERIFY_PASS(G, When);
    if (Options.DifferentialCheck) {
      PF_TRACE_SCOPE_CAT("pimflow.differential_check", "compile");
      if (auto Diff = compareGraphOutputs(Model, G, /*Seed=*/0x51A5))
        fatal(formatStr("differential check %s: transformed graph diverges "
                        "from '%s': %s",
                        When, Model.name().c_str(), Diff->c_str()));
    }
  };

  {
    PF_TRACE_SCOPE_CAT("pimflow.apply_plan", "compile");
    SearchEngine::apply(G, Plan);
  }
  AtPassBoundary("after plan application (MD-DP splits / pipelining)");
  {
    // Clean up transform residue (dead chain nodes, cancellable
    // slice-of-concat pairs); also removes false dependencies on whole-join
    // concats at pipeline stage boundaries.
    PF_TRACE_SCOPE_CAT("pimflow.canonicalize", "compile");
    canonicalize(G);
  }
  AtPassBoundary("after canonicalization");
  {
    PF_TRACE_SCOPE_CAT("pimflow.shape_inference", "compile");
    auto ShapeErr = inferShapes(G);
    PF_ASSERT(!ShapeErr, "transformed graph fails shape inference");
    (void)ShapeErr;
  }
  {
    // Final gate: the graph handed to the execution engine always passes
    // the full verifier, whatever the build configuration. This subsumes
    // the old validate()/device PF_ASSERT block with coded diagnostics.
    PF_TRACE_SCOPE_CAT("pimflow.verify", "compile");
    DiagnosticEngine DE(Options.MaxVerifyErrors);
    if (!verify(G, DE))
      fatal(formatStr("transformed graph '%s' failed verification:\n%s",
                      G.name().c_str(), DE.render().c_str()));

    // PIM annotations additionally require PIM channels — a property of the
    // system configuration, not of the graph, so checked here rather than
    // in the verifier.
    for (const Node &N : G.nodes()) {
      if (N.Dead || N.Dev != Device::Pim)
        continue;
      PF_ASSERT(Config.hasPim(), "PIM annotation without PIM channels");
    }
  }
  return G;
}

CompileResult PimFlow::executePlan(const Graph &Model, ExecutionPlan Plan) {
  PF_TRACE_SCOPE_CAT("pimflow.execute_plan", "compile");
  CompileResult R;
  R.Policy = Policy;
  R.Config = Config;
  R.Transformed = materialize(Model, Plan);
  R.Plan = std::move(Plan);

  if (Options.FaultSpec.empty()) {
    PF_TRACE_SCOPE_CAT("pimflow.execute", "compile");
    ExecutionEngine Engine(Config);
    R.Schedule = Engine.execute(R.Transformed);
  } else {
    // Fault-injected execution: build the fault schedule, then let the
    // recovery executor retry, remap, or fall back as needed. Recovery only
    // flips device annotations, so the executed graph stays bit-identical
    // to the transformed one.
    PF_TRACE_SCOPE_CAT("pimflow.execute_with_faults", "compile");
    DiagnosticEngine DE;
    FaultModel Faults;
    if (Options.FaultSpec == "chaos") {
      Faults = FaultModel::chaos(Options.FaultSeed, Config.Pim.Channels);
    } else if (auto Parsed = FaultModel::parse(Options.FaultSpec, DE)) {
      Faults = *std::move(Parsed);
    } else {
      fatal(formatStr("bad --faults spec:\n%s", DE.render().c_str()));
    }
    PF_LOG_INFO("injecting faults: %s", Faults.describe().c_str());

    RecoveryOptions RO;
    RO.Retry.MaxRetries = Options.MaxRetries;
    RO.PimFloor = Options.PimFloor;
    RecoveryExecutor Exec(Config, Faults, RO);
    RecoveryResult RR = Exec.run(R.Transformed, DE);
    if (!RR.Ok)
      fatal(formatStr("fault recovery failed for '%s':\n%s",
                      R.Transformed.name().c_str(), DE.render().c_str()));
    R.Transformed = std::move(RR.Executed);
    R.Schedule = std::move(RR.Schedule);
    R.Recovery.Active = true;
    R.Recovery.Degraded = RR.Degraded;
    R.Recovery.DeadChannels = RR.DeadChannels;
    R.Recovery.StalledChannels = RR.StalledChannels;
    R.Recovery.SurvivingChannels = RR.SurvivingChannels;
    R.Recovery.NodesRemapped = RR.NodesRemapped;
    R.Recovery.NodesFellBack = RR.NodesFellBack;
    R.Recovery.TransientRetries = RR.TransientRetries;
    R.Recovery.Notes = std::move(RR.Notes);
    for (const std::string &Note : R.Recovery.Notes)
      PF_LOG_INFO("recovery: %s", Note.c_str());
  }
  obs::addCounter("pimflow.compilations");
  PF_LOG_INFO("executed %s: %.2f us end-to-end, %.2f uJ",
              R.Transformed.name().c_str(), R.endToEndNs() / 1e3,
              R.energyJ() * 1e6);

  // Per-layer-class attribution reads GPU-baseline times out of the plan's
  // decision trail rather than the profiler: every covered node carries its
  // GpuOnlyNs, so a deserialized plan attributes identically to a fresh
  // search without a single profiler query.
  std::map<NodeId, double> GpuBaselineNs;
  for (const SearchDecision &D : R.Plan.Decisions)
    GpuBaselineNs[D.Id] = D.GpuOnlyNs;
  for (const SegmentPlan &S : R.Plan.Segments) {
    bool HasConv = false, HasFc = false;
    for (NodeId Id : S.Nodes) {
      const Node &N = Model.node(Id);
      HasConv |= N.Kind == OpKind::Conv2d && isPimCandidate(N);
      HasFc |= N.Kind == OpKind::Gemm;
    }
    double ConvNs = HasConv ? S.PredictedNs : 0.0;
    if (HasConv && S.Mode == SegmentMode::Pipeline) {
      // A pipelined segment's time covers the whole chain (candidate
      // convs + depthwise/activation stages); attribute only the
      // candidate-conv share, estimated from the chain's GPU-baseline
      // split, to the CONV-layer metric.
      double CandidateNs = 0.0, ChainNs = 0.0;
      for (NodeId Id : S.Nodes) {
        auto It = GpuBaselineNs.find(Id);
        const double Ns = It != GpuBaselineNs.end() ? It->second : 0.0;
        ChainNs += Ns;
        if (isPimCandidate(Model.node(Id)))
          CandidateNs += Ns;
      }
      if (ChainNs > 0.0)
        ConvNs *= CandidateNs / ChainNs;
    }
    R.ConvLayerNs += ConvNs;
    if (HasFc)
      R.FcLayerNs += S.PredictedNs;
  }
  return R;
}
