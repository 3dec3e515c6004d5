//===- obs/Attribution.h - Timeline performance attribution -----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Answers "where did the time go" for an executed Timeline: the critical
/// chain through dependency and device-occupancy constraints, per-node
/// slack, busy/idle accounting for the GPU lane and every PIM channel, and
/// per-channel command-phase cycle totals.
///
/// The analysis replays the ExecutionEngine's scheduling rules rather than
/// instrumenting the scheduler: a node starts at max(lane free, ready), a
/// cross-device producer hands off SyncOverheadNs late, and zero-duration
/// (fused) nodes never occupy a lane. Per-channel occupancy comes from the
/// timeline's kernel records, which the Chrome-trace exporter reads too,
/// so the two views of a run always agree. On a run that recovery remapped
/// onto fewer channels, PIM lane k is the k-th surviving channel.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_OBS_ATTRIBUTION_H
#define PIMFLOW_OBS_ATTRIBUTION_H

#include <string>
#include <vector>

#include "ir/Graph.h"
#include "pim/PimSimulator.h"
#include "runtime/ExecutionEngine.h"
#include "runtime/SystemConfig.h"

namespace pf::obs {

/// One busy interval on a lane (a scheduled kernel slice).
struct LaneInterval {
  NodeId Id = InvalidNode;
  double StartNs = 0.0;
  double EndNs = 0.0;
};

/// One idle hole on a lane within [0, makespan].
struct IdleGap {
  double StartNs = 0.0;
  double EndNs = 0.0;

  double durationNs() const { return EndNs - StartNs; }
};

/// Busy/idle accounting of one lane: the GPU lane or one PIM channel.
struct LaneUsage {
  /// "gpu" or "pim.ch<N>".
  std::string Name;
  /// PIM channel index; -1 for the GPU lane.
  int Channel = -1;
  /// Busy intervals in start order (unmerged; one per kernel slice).
  std::vector<LaneInterval> Busy;
  /// Idle holes between merged busy intervals, spanning [0, makespan].
  std::vector<IdleGap> Gaps;
  /// Merged busy time (overlapping slices counted once).
  double BusyNs = 0.0;
  /// Makespan minus BusyNs.
  double IdleNs = 0.0;

  double utilization() const {
    const double Span = BusyNs + IdleNs;
    return Span > 0.0 ? BusyNs / Span : 0.0;
  }
};

/// Why a critical-chain node started exactly when it did.
enum class CriticalReason : uint8_t {
  Start,      ///< Started at time zero; nothing gated it.
  Dependency, ///< A producer's completion (plus handoff) gated the start.
  DeviceBusy, ///< The lane was occupied by the blocker until the start.
};

/// Returns "start"/"dependency"/"device-busy".
const char *criticalReasonName(CriticalReason R);

/// One node on the critical chain, in time order.
struct CriticalStep {
  NodeId Id = InvalidNode;
  Device Dev = Device::Gpu;
  double StartNs = 0.0;
  double EndNs = 0.0;
  CriticalReason Why = CriticalReason::Start;
  /// The gating node (producer or lane predecessor); InvalidNode for
  /// Start.
  NodeId Blocker = InvalidNode;
};

/// The chain of nodes that determines the makespan: walking any step's
/// blocker leads to the previous step, and the last step ends at the
/// timeline's TotalNs (LengthNs == makespan is an invariant the tests pin).
struct CriticalPath {
  std::vector<CriticalStep> Steps;
  double LengthNs = 0.0;
  /// Time the chain spends computing on each device (handoff waits make
  /// GpuNs + PimNs <= LengthNs).
  double GpuNs = 0.0;
  double PimNs = 0.0;
};

/// How far a node's completion can slip without growing the makespan,
/// given the schedule's dependency and lane orders.
struct NodeSlack {
  NodeId Id = InvalidNode;
  double SlackNs = 0.0;
  bool Critical = false;
};

/// The full attribution of one executed timeline.
struct AttributionReport {
  double TotalNs = 0.0;
  CriticalPath Critical;
  /// One entry per scheduled node, in schedule order.
  std::vector<NodeSlack> Slack;
  /// The GPU lane first, then every used PIM channel ascending.
  std::vector<LaneUsage> Lanes;
  /// Per-channel command-phase cycles summed over all offloaded nodes
  /// (the fault-free plans the engine priced), ascending by channel.
  std::vector<ChannelPhaseCycles> Phases;
};

/// Attributes \p TL (executed from \p G under \p Config): critical chain,
/// slack, lane usage, and per-channel phase cycles. Records no telemetry
/// into the active registry: an export must not count its own work.
AttributionReport attributeTimeline(const Graph &G, const Timeline &TL,
                                    const SystemConfig &Config);

/// Bumps the `pim.phase_cycles.<phase>.ch<N>` counters from \p Phases
/// (gwrite / g_act / comp / readres / retry / stall per channel). Call
/// once per run — repeated calls accumulate.
void exportPhaseCounters(const std::vector<ChannelPhaseCycles> &Phases);

} // namespace pf::obs

#endif // PIMFLOW_OBS_ATTRIBUTION_H
