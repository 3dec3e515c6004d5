//===- runtime/ExecutionEngine.h - GPU/PIM parallel execution ---*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mixed-parallel execution engine (the paper's extended TVM execution
/// engine): given a device-annotated graph it schedules GPU and PIM kernels
/// onto their respective resources as dependencies allow, prices
/// cross-device data movement over the channel interconnect, and reports a
/// per-node timeline with end-to-end latency and energy.
///
/// MD-DP and pipelined parallelism need no special handling here — the
/// transformation passes encode them structurally (split nodes / stage
/// nodes with the right dataflow edges), so plain dependency-driven list
/// scheduling realizes the overlap.
///
/// An engine plans each distinct PIM kernel once in its lifetime and keeps
/// what a fault-free run reads of the plan, so a caller that runs many
/// graphs on one configuration keeps one engine (serve keeps one per
/// granted channel count, the profiler one for its pipeline samples).
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_RUNTIME_EXECUTIONENGINE_H
#define PIMFLOW_RUNTIME_EXECUTIONENGINE_H

#include <map>
#include <optional>
#include <span>
#include <vector>

#include "codegen/CommandGenerator.h"
#include "codegen/MemoryOptimizer.h"
#include "gpu/GpuModel.h"
#include "pim/FaultModel.h"
#include "runtime/SystemConfig.h"
#include "support/Diagnostics.h"

namespace pf {

/// Execution record of one node.
struct NodeSchedule {
  NodeId Id = InvalidNode;
  Device Dev = Device::Gpu;
  double StartNs = 0.0;
  double EndNs = 0.0;
  double EnergyJ = 0.0;

  double durationNs() const { return EndNs - StartNs; }
};

/// Result of executing a graph.
struct Timeline {
  std::vector<NodeSchedule> Nodes;
  double TotalNs = 0.0;
  double GpuBusyNs = 0.0;
  double PimBusyNs = 0.0;
  /// Total energy: kernel energies + GPU static power over the makespan.
  double EnergyJ = 0.0;
  /// GPU slowdown applied by the contention model (1.0 = none).
  double ContentionSlowdown = 1.0;
  /// One record per node scheduled on PIM, in schedule order, from the
  /// fault-free plan the engine keeps: what exporters read instead of
  /// planning the kernels again.
  std::vector<PimKernelRecord> Kernels;

  /// Schedule entry for node \p Id, or nullptr when the node was never
  /// scheduled — the probe for recovery code inspecting partially-executed
  /// timelines, where absence is an answer rather than a bug.
  const NodeSchedule *find(NodeId Id) const;

  /// Schedule entry for node \p Id. A missing node dies through fatal()
  /// with a message naming the node; callers that can tolerate absence
  /// should use find() instead.
  const NodeSchedule &scheduleOf(NodeId Id) const;
};

/// A node of a dataflow the engine schedules without a graph: what
/// tryExecute knows of a live node once it has priced it.
struct ScheduleTask {
  Device Dev = Device::Gpu;
  /// The node's duration; a GPU node's before contention scales it.
  double Ns = 0.0;
  /// GWRITE bursts of a PIM node's kernel plan (what contention prices).
  int64_t GwriteBursts = 0;
  /// Bit J is set when the node reads task J's output.
  uint32_t Inputs = 0;
};

/// Dependency-driven two-resource scheduler over the timing models. It
/// keeps the PIM kernels it planned, so one engine expects one caller at a
/// time (docs/INTERNALS.md section 7).
class ExecutionEngine {
public:
  explicit ExecutionEngine(const SystemConfig &Config);

  const SystemConfig &config() const { return Config; }

  /// Executes \p G per its device annotations (Device::Any runs on GPU).
  /// Aborts through fatal() on unschedulable inputs (dependency cycle, PIM
  /// annotation without PIM channels); use tryExecute to get a diagnostic
  /// instead.
  Timeline execute(const Graph &G);

  /// Like execute, but unschedulable inputs produce coded diagnostics in
  /// \p DE (exec.unschedulable, exec.no-pim-channels) and nullopt instead
  /// of an abort. With a non-null \p Faults, PIM kernel timings are
  /// simulated fault-aware under \p Retry (which must then also be
  /// non-null): retries and slow channels inflate durations, and any
  /// persistent fault reaching the engine is an error (fault.unrecovered)
  /// — recovery must remap or fall back first, so a silently wrong
  /// timeline is impossible.
  ///
  /// A PIM kernel whose spec an earlier run planned is not planned again:
  /// the run reads the engine's kept entry, and returns the timeline a
  /// fresh engine would. A fault-aware run still plans each of its kernels
  /// with the device trace, for that run only.
  std::optional<Timeline> tryExecute(const Graph &G, DiagnosticEngine &DE,
                                     const FaultModel *Faults = nullptr,
                                     const RetryPolicy *Retry = nullptr);

  /// The makespan tryExecute reports for a fault-free run of a graph whose
  /// live nodes, in node-id order, are \p Tasks (at most 32): the same
  /// topological order, list scheduler, handoff syncs and contention
  /// re-pass, with no graph, plan or timeline built.
  double makespanNs(std::span<const ScheduleTask> Tasks) const;

  /// What a run charges node \p N on the GPU: nothing for an elementwise
  /// node fused into its producer's epilogue, else its latency.
  double gpuDurationNs(const NodeView &N) const;

  /// Latency of one node on the GPU in isolation (no transfers).
  double nodeLatencyNs(const Graph &G, NodeId Id) const;

private:
  /// What a fault-free run reads of one PIM kernel's plan. It holds no
  /// trace and one channel's phases, so an engine keeps one per distinct
  /// spec cheaply.
  struct KeptPlan {
    double Ns = 0.0;
    double EnergyJ = 0.0;
    /// The plan's record; each executed node gets a copy with its own Id.
    PimKernelRecord Record;
  };

  /// Latency and energy of one node on the GPU in isolation.
  struct GpuCost {
    double Ns = 0.0;
    double EnergyJ = 0.0;
  };
  GpuCost gpuCost(const NodeView &N) const;

  /// The contention model's GPU slowdown: PIM fetches of \p FetchCycles
  /// occupy the shared memory controller for that share of a first pass
  /// of \p MakespanNs.
  double contentionSlowdown(double FetchCycles, double MakespanNs) const;

  SystemConfig Config;
  GpuModel Gpu;
  MemoryOptimizer MemOpt;
  PimCommandGenerator Gen;
  PimSimulator Sim;
  /// Every PIM kernel this engine planned, by spec.
  std::map<PimKernelSpec, KeptPlan> KeptPlans;
};

} // namespace pf

#endif // PIMFLOW_RUNTIME_EXECUTIONENGINE_H
