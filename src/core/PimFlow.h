//===- core/PimFlow.h - End-to-end compiler facade --------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level PIMFlow entry point, mirroring the artifact's `pimflow`
/// driver: pick an offloading mechanism (Section 5's evaluated list), run
/// the execution-mode and task-size search, transform the model graph, and
/// execute it on the simulated GPU + PIM-enabled-memory system.
///
/// \code
///   pf::Graph Model = pf::buildMobileNetV2();
///   pf::PimFlow Flow(pf::OffloadPolicy::PimFlow);
///   pf::CompileResult R = Flow.compileAndRun(Model);
///   // R.EndToEndNs, R.EnergyJ, R.Transformed, R.Plan ...
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_CORE_PIMFLOW_H
#define PIMFLOW_CORE_PIMFLOW_H

#include <memory>
#include <optional>

#include "plan/PlanCache.h"
#include "runtime/ExecutionEngine.h"
#include "search/SearchEngine.h"

namespace pf {

/// The offloading mechanisms evaluated in Section 5.
enum class OffloadPolicy : uint8_t {
  GpuOnly,        ///< Baseline: GPU with all 32 memory channels.
  NewtonPlus,     ///< Newton with CONV/FC offloading + command scheduling.
  NewtonPlusPlus, ///< Newton+ plus the PIM command optimizations.
  PimFlowMd,      ///< Newton++ plus MD-DP mixed-parallel execution.
  PimFlowPl,      ///< Newton++ plus pipelined execution.
  PimFlow,        ///< Full PIMFlow: MD-DP + pipelining.
};

/// Returns the paper's mechanism name ("Baseline", "Newton+", ...).
const char *policyName(OffloadPolicy P);

/// All evaluated policies in the paper's order.
std::vector<OffloadPolicy> allPolicies();

/// Tunables for sensitivity studies; defaults reproduce the paper's main
/// configuration.
struct PimFlowOptions {
  int TotalChannels = 32;
  /// PIM-enabled channels of the dual configuration (Fig. 13 sweeps this).
  int PimChannels = 16;
  /// Pipeline stage count (Fig. 15 sweeps this).
  int PipelineStages = 2;
  /// Memory-layout optimization (Section 4.3.2).
  bool MemoryOptimizer = true;
  /// Model memory-controller contention (Section 7).
  bool ModelContention = false;
  /// Ablation overrides for the PIM command optimizations (Fig. 14). When
  /// unset, the policy decides (Newton+: 1 buffer / no hiding; Newton++ and
  /// later: 4 buffers / hiding).
  std::optional<int> NumGlobalBuffers;
  std::optional<bool> GwriteLatencyHiding;
  /// The paper's future-work auto-tuning: refine MD-DP split ratios around
  /// the coarse 10% optimum at 2% granularity (Section 5's footnote
  /// measured ~1% extra speedup from a full 2% grid).
  bool AutoTuneRatios = false;
  /// Ablation override for the Fig.-6 command-scheduling granularity (the
  /// finest level the scheduler may use; default: COMP).
  std::optional<ScheduleGranularity> MaxGranularity;
  /// Run the graph verifier at every pass boundary (plan application,
  /// canonicalization) even in builds without PIMFLOW_CHECKED. The final
  /// transformed graph is always verified regardless of this flag.
  bool VerifyPasses = false;
  /// Differential pass-boundary check: cross-run the reference interpreter
  /// on the original vs. the transformed graph at each pass boundary and
  /// abort on the first differing output element. Expensive (two full
  /// interpreter runs per boundary); debugging aid, not a production mode.
  bool DifferentialCheck = false;
  /// Cap on collected diagnostics when verification fails (--max-errors).
  int MaxVerifyErrors = 64;
  /// Fault-injection spec (--faults): the FaultModel::parse grammar, or the
  /// literal "chaos" to derive a seeded random schedule. Empty = no faults.
  std::string FaultSpec;
  /// Seed for FaultSpec == "chaos" (--fault-seed).
  uint64_t FaultSeed = 0;
  /// Retry budget for transient command faults (--max-retries).
  int MaxRetries = 3;
  /// Minimum surviving PIM channels before whole-graph GPU fallback
  /// (--pim-floor).
  int PimFloor = 1;
  /// Content-addressed plan cache directory (--plan-cache-dir). When set,
  /// plan() consults the cache before searching and stores fresh results;
  /// empty disables caching. Keys cover the canonical graph, system
  /// configuration, search options, and fault floor, so any relevant
  /// change misses.
  std::string PlanCacheDir;
};

/// Builds the system configuration a policy runs on.
SystemConfig systemConfigFor(OffloadPolicy P, const PimFlowOptions &O);

/// Builds the search option set a policy is allowed to use.
SearchOptions searchOptionsFor(OffloadPolicy P, const PimFlowOptions &O);

/// Degradation summary of a fault-injected run (CompileResult::Recovery).
struct RecoverySummary {
  /// Fault injection was requested (FaultSpec non-empty).
  bool Active = false;
  /// Something degraded: channels lost, nodes remapped or demoted.
  bool Degraded = false;
  int DeadChannels = 0;
  int StalledChannels = 0;
  int SurvivingChannels = 0;
  int NodesRemapped = 0;
  int NodesFellBack = 0;
  int TransientRetries = 0;
  /// Human-readable degradation notes, one per event.
  std::vector<std::string> Notes;
};

/// Outcome of compiling and executing one model under one policy.
struct CompileResult {
  OffloadPolicy Policy = OffloadPolicy::GpuOnly;
  SystemConfig Config;
  /// The transformed, device-annotated graph.
  Graph Transformed{"empty"};
  /// The search result that produced it.
  ExecutionPlan Plan;
  /// End-to-end schedule of the transformed graph.
  Timeline Schedule;

  double endToEndNs() const { return Schedule.TotalNs; }
  double energyJ() const { return Schedule.EnergyJ; }

  /// Sum of profiled segment times over segments containing PIM-candidate
  /// CONV layers (Fig. 9's per-layer-class metric).
  double ConvLayerNs = 0.0;
  /// Likewise for FC (Gemm) layers.
  double FcLayerNs = 0.0;

  /// Degradation summary when the run was fault-injected (--faults).
  RecoverySummary Recovery;
};

/// The compiler-and-runtime facade.
class PimFlow {
public:
  explicit PimFlow(OffloadPolicy Policy, PimFlowOptions Options = {});

  OffloadPolicy policy() const { return Policy; }
  const SystemConfig &config() const { return Config; }

  /// Runs the full flow on \p Model: search (or cache hit), transform,
  /// validate, execute. Equivalent to executePlan(Model, plan(Model)).
  CompileResult compileAndRun(const Graph &Model);

  /// The search half of the flow: produces the execution plan for
  /// \p Model, consulting the plan cache when PlanCacheDir is set.
  ExecutionPlan plan(const Graph &Model);

  /// The execution half: applies \p Plan to \p Model, validates, and
  /// executes — no search and no profiling, so a deserialized artifact
  /// replays without ever touching the profiler.
  CompileResult executePlan(const Graph &Model, ExecutionPlan Plan);

  /// The transform half of executePlan: applies \p Plan to \p Model,
  /// canonicalizes, infers shapes, and runs the full verifier — returning
  /// the execution-ready graph without executing it. Serve sessions
  /// materialize each (model, plan) pair once up front, then execute the
  /// cached graph many times under per-request channel grants.
  Graph materialize(const Graph &Model, const ExecutionPlan &Plan);

  /// The content address a compile of \p Model would be cached under.
  PlanKey planKey(const Graph &Model) const;

  /// The profiler (exposes the measurement cache for reuse and the
  /// compilation-overhead statistics of Section 7).
  Profiler &profiler() { return Prof; }

  /// The plan cache, or nullptr when PlanCacheDir is empty.
  PlanCache *planCache() { return Cache.get(); }

private:
  OffloadPolicy Policy;
  PimFlowOptions Options;
  SystemConfig Config;
  Profiler Prof;
  std::unique_ptr<PlanCache> Cache;
};

} // namespace pf

#endif // PIMFLOW_CORE_PIMFLOW_H
