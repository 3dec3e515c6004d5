//===- runtime/Recovery.cpp - Fault recovery and degradation ----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Recovery.h"

#include <algorithm>

#include "codegen/PimKernelSpec.h"
#include "obs/Counters.h"
#include "obs/FlightRecorder.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "pim/PimSimulator.h"
#include "support/Format.h"

using namespace pf;

RecoveryExecutor::RecoveryExecutor(const SystemConfig &Config,
                                   const FaultModel &Faults,
                                   const RecoveryOptions &Options)
    : Config(Config), Faults(Faults), Options(Options) {}

RecoveryResult RecoveryExecutor::run(const Graph &G,
                                     DiagnosticEngine &DE) const {
  PF_TRACE_SCOPE_CAT("recovery.run", "recovery");
  obs::addCounter("recovery.runs");
  RecoveryResult R;
  R.Executed = G;

  if (!validateSystemConfig(Config, DE))
    return R; // Ok stays false; DE carries config.invalid errors.

  SystemConfig Degraded = Config;
  // The fault model the execution engine sees, projected onto whatever
  // channel group survives. Dead/stalled channels never reach the engine —
  // they are handled here, structurally.
  FaultModel Local;

  if (Config.hasPim()) {
    const int NumPim = Config.Pim.Channels;
    const std::vector<int> Survivors = Faults.survivors(NumPim);
    R.SurvivingChannels = static_cast<int>(Survivors.size());

    for (int Ch = 0; Ch < NumPim; ++Ch) {
      if (Faults.channelDead(Ch)) {
        ++R.DeadChannels;
        DE.warning(DiagCode::FaultDeadChannel, formatStr("channel %d", Ch),
                   "PIM channel permanently lost; remapping its work");
        R.Notes.push_back(formatStr("dead PIM channel %d", Ch));
        obs::addCounter("recovery.dead_channels");
        obs::flightEvent(obs::FlightEventKind::ChannelDead, 0, Ch, -1, 0.0,
                         "recovery");
      } else if (Faults.channelStalled(Ch)) {
        ++R.StalledChannels;
        DE.warning(DiagCode::FaultStalledChannel, formatStr("channel %d", Ch),
                   "GWRITE stall hit the watchdog; channel treated as lost");
        R.Notes.push_back(formatStr("stalled PIM channel %d", Ch));
        obs::addCounter("recovery.stalled_channels");
        obs::flightEvent(obs::FlightEventKind::WatchdogTrip, 0, Ch, -1, 0.0,
                         "recovery");
      }
    }

    const int Lost = NumPim - R.SurvivingChannels;
    const int Floor = std::max(1, Options.PimFloor);

    if (R.SurvivingChannels < Floor) {
      // Rule 2: not enough capacity left — the whole graph falls back to
      // the GPU through the existing device annotations. No PIM work
      // remains, so the engine never needs a fault model.
      int Demoted = 0;
      for (const Node &N : G.nodes()) {
        if (N.Dead || N.Dev != Device::Pim)
          continue;
        R.Executed.node(N.Id).Dev = Device::Gpu;
        ++Demoted;
      }
      R.NodesFellBack += Demoted;
      R.Degraded = true;
      Degraded.Pim.Channels = R.SurvivingChannels;
      DE.warning(DiagCode::FaultPimFloor, G.name(),
                 formatStr("%d of %d PIM channels survive (floor %d); "
                           "falling back to GPU-only execution",
                           R.SurvivingChannels, NumPim, Floor));
      R.Notes.push_back(
          formatStr("PIM capacity below floor (%d < %d): %d node(s) fell "
                    "back to GPU",
                    R.SurvivingChannels, Floor, Demoted));
      obs::addCounter("recovery.pim_floor_fallbacks");
      obs::flightEvent(obs::FlightEventKind::FloorFallback, 0,
                       R.SurvivingChannels, Floor,
                       static_cast<double>(Demoted));
    } else {
      if (Lost > 0) {
        // Rule 1: remap — shrink the PIM channel group and let the command
        // generator re-plan every PIM kernel over the survivors. The
        // Fig. 6 partition enumeration does the actual redistribution.
        Degraded.Pim.Channels = R.SurvivingChannels;
        int Remapped = 0;
        for (const Node &N : G.nodes())
          if (!N.Dead && N.Dev == Device::Pim)
            ++Remapped;
        R.NodesRemapped = Remapped;
        R.Degraded = true;
        if (Remapped > 0) {
          R.Notes.push_back(
              formatStr("remapped %d PIM node(s) across %d surviving "
                        "channel(s)",
                        Remapped, R.SurvivingChannels));
          obs::addCounter("recovery.nodes_remapped",
                          static_cast<int64_t>(Remapped));
          // One remap event per lost channel: its work moves onto the
          // compacted surviving group (B = new group size).
          for (int Ch = 0; Ch < NumPim; ++Ch)
            if (Faults.channelDead(Ch) || Faults.channelStalled(Ch))
              obs::flightEvent(obs::FlightEventKind::ChannelRemap, 0, Ch,
                               R.SurvivingChannels,
                               static_cast<double>(Remapped));
        }
      }
      Local = Faults.compactedFor(Survivors);

      if (!Local.empty()) {
        // Rule 3: pre-check the surviving faults per node. Bounded retries
        // and slow channels merely inflate the node's time; a transient
        // fault outlasting the retry budget demotes just that node.
        // Determinism guarantees the engine's own fault-aware simulation
        // reaches the same verdict for every node left on PIM.
        PimCommandGenerator Gen(Degraded.Pim, Degraded.Codegen);
        PimSimulator Sim(Degraded.Pim);
        std::vector<NodeId> PimNodes;
        for (const Node &N : R.Executed.nodes())
          if (!N.Dead && N.Dev == Device::Pim)
            PimNodes.push_back(N.Id);
        for (NodeId Id : PimNodes) {
          const PimKernelPlan Plan = Gen.plan(lowerToPimSpec(R.Executed, Id));
          const FaultyRunStats FS =
              Sim.runWithFaults(Plan.Trace, Local, Options.Retry);
          const std::string &Name = R.Executed.node(Id).Name;
          if (FS.anyPersistent()) {
            R.Executed.node(Id).Dev = Device::Gpu;
            ++R.NodesFellBack;
            R.Degraded = true;
            DE.warning(DiagCode::FaultRetriesExhausted, Name,
                       formatStr("transient fault persists beyond %d "
                                 "retries; node falls back to GPU",
                                 Options.Retry.MaxRetries));
            R.Notes.push_back(
                formatStr("node %s fell back to GPU (retries exhausted)",
                          Name.c_str()));
            obs::addCounter("recovery.node_fallbacks");
            obs::flightEvent(obs::FlightEventKind::NodeFallback, 0,
                             static_cast<int32_t>(Id), -1, 0.0,
                             "retries-exhausted");
            continue;
          }
          if (FS.TotalRetries > 0) {
            R.TransientRetries += FS.TotalRetries;
            R.Degraded = true;
            R.Notes.push_back(formatStr("node %s absorbed %d retr%s",
                                        Name.c_str(), FS.TotalRetries,
                                        FS.TotalRetries == 1 ? "y" : "ies"));
            obs::addCounter("recovery.retries",
                            static_cast<int64_t>(FS.TotalRetries));
          } else if (FS.degraded()) {
            R.Degraded = true;
            R.Notes.push_back(
                formatStr("node %s runs on a slowed channel", Name.c_str()));
          }
        }
      }
    }
  }

  ExecutionEngine Engine(Degraded);
  std::optional<Timeline> TL = Engine.tryExecute(
      R.Executed, DE, Local.empty() ? nullptr : &Local, &Options.Retry);
  if (!TL) {
    // The engine already recorded its ExecError event; snapshot the rings
    // once more under the recovery label so an unrecovered fault always
    // leaves a trace even if the engine's own dump path changes.
    obs::FlightRecorder::instance().autoDump("recovery: fault unrecovered");
    return R;
  }
  R.Schedule = *std::move(TL);
  R.Ok = true;
  if (R.Degraded)
    obs::addCounter("recovery.degraded_runs");
  return R;
}
