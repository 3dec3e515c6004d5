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
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_RUNTIME_EXECUTIONENGINE_H
#define PIMFLOW_RUNTIME_EXECUTIONENGINE_H

#include <optional>
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
  /// fault-free plan the engine priced: what exporters read instead of
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

/// Dependency-driven two-resource scheduler over the timing models.
class ExecutionEngine {
public:
  explicit ExecutionEngine(const SystemConfig &Config);

  const SystemConfig &config() const { return Config; }

  /// Executes \p G per its device annotations (Device::Any runs on GPU).
  /// Aborts through fatal() on unschedulable inputs (dependency cycle, PIM
  /// annotation without PIM channels); use tryExecute to get a diagnostic
  /// instead.
  Timeline execute(const Graph &G) const;

  /// Like execute, but unschedulable inputs produce coded diagnostics in
  /// \p DE (exec.unschedulable, exec.no-pim-channels) and nullopt instead
  /// of an abort. With a non-null \p Faults, PIM kernel timings are
  /// simulated fault-aware under \p Retry (which must then also be
  /// non-null): retries and slow channels inflate durations, and any
  /// persistent fault reaching the engine is an error (fault.unrecovered)
  /// — recovery must remap or fall back first, so a silently wrong
  /// timeline is impossible.
  std::optional<Timeline> tryExecute(const Graph &G, DiagnosticEngine &DE,
                                     const FaultModel *Faults = nullptr,
                                     const RetryPolicy *Retry = nullptr) const;

  /// Latency of one node on the GPU in isolation (no transfers).
  double nodeLatencyNs(const Graph &G, NodeId Id) const;

  /// Energy of one node on the GPU in isolation.
  double nodeEnergyJ(const Graph &G, NodeId Id) const;

private:
  SystemConfig Config;
  GpuModel Gpu;
  MemoryOptimizer MemOpt;
};

} // namespace pf

#endif // PIMFLOW_RUNTIME_EXECUTIONENGINE_H
