//===- pim/PimSimulator.h - DRAM-PIM cycle simulator ------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Ramulator-extension stand-in: executes PIM command traces against the
/// Table-1 timing parameters and reports cycles, command counts, and energy.
///
/// Each channel has two engines:
///  * the fetch engine serving GWRITE (data moves from GPU channels into the
///    global buffers), and
///  * the bank engine serving G_ACT / COMP / READRES.
/// Without GWRITE latency hiding the two serialize (the paper's baseline,
/// where a single set of channels cannot fetch and activate at once); with
/// hiding, G_ACT proceeds under an in-flight GWRITE and only COMP waits for
/// its input data — the Section 4.1 optimization enabled by the split
/// GPU/PIM channel groups.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_PIM_PIMSIMULATOR_H
#define PIMFLOW_PIM_PIMSIMULATOR_H

#include <vector>

#include "pim/FaultModel.h"
#include "pim/PimCommand.h"
#include "pim/PimConfig.h"

namespace pf {

/// Busy cycles of one channel split by command phase. Command durations are
/// state-independent (only start times depend on engine occupancy), so the
/// per-phase totals are exact regardless of GWRITE latency hiding; with
/// hiding enabled the fetch phase (GWRITE) overlaps the bank phases, which
/// is why busyCycles() can exceed CompletionCycles. The fault path adds
/// retry/backoff time (RetryCycles) and watchdog-bounded stall loss
/// (StallCycles) so a degraded run's extra time is attributable, not just
/// visible as a longer makespan.
struct ChannelPhaseCycles {
  int Channel = 0;
  int64_t GwriteCycles = 0;
  int64_t GactCycles = 0;
  int64_t CompCycles = 0;
  int64_t ReadResCycles = 0;
  /// Fault path: re-issue plus accumulated backoff time of retried
  /// commands.
  int64_t RetryCycles = 0;
  /// Fault path: cycles lost to a stalled GWRITE before the watchdog cut
  /// the channel off.
  int64_t StallCycles = 0;
  /// Channel completion time (0 for dead channels).
  int64_t CompletionCycles = 0;

  /// Total attributed busy time: the phase buckets sum to this by
  /// construction (the consistency the attribution tests pin down).
  int64_t busyCycles() const {
    return GwriteCycles + GactCycles + CompCycles + ReadResCycles +
           RetryCycles + StallCycles;
  }
  /// Bank-engine busy time (the compute-side phases; excludes the fetch
  /// engine, which may overlap under GWRITE latency hiding).
  int64_t bankBusyCycles() const {
    return GactCycles + CompCycles + ReadResCycles + RetryCycles;
  }

  ChannelPhaseCycles &operator+=(const ChannelPhaseCycles &O);
};

/// Cycles \p Cmd occupies its engine under \p Config's timing parameters.
/// Durations are state-independent; only start times depend on engine
/// occupancy. Mirrors the simulator's step() exactly, which keeps its own
/// copy because it already switches on the command kind.
inline int64_t commandCycles(const PimConfig &Config, const PimCommand &Cmd) {
  switch (Cmd.Kind) {
  case PimCmdKind::Gwrite:
  case PimCmdKind::Gwrite2:
  case PimCmdKind::Gwrite4: {
    const int64_t Buffers = Cmd.Kind == PimCmdKind::Gwrite    ? 1
                            : Cmd.Kind == PimCmdKind::Gwrite2 ? 2
                                                              : 4;
    return Config.TGwrite + (Cmd.Count * Buffers - 1) * Config.TCcdl;
  }
  case PimCmdKind::GAct:
    return Config.TGact + (Cmd.Count - 1) * Config.TRrd;
  case PimCmdKind::Comp:
    return Cmd.Count * Config.TComp;
  case PimCmdKind::ReadRes:
    return Config.TReadRes + (Cmd.Count - 1) * Config.TCcdl;
  }
  pf_unreachable("unknown PIM command kind");
}

/// Per-phase busy cycles of \p Trace under \p Config's timing parameters
/// (expanded over block repeats; no simulation needed since durations are
/// state-independent).
ChannelPhaseCycles phaseCyclesOf(const PimConfig &Config,
                                 const ChannelTrace &Trace);

/// Aggregate results of executing one device trace.
struct PimRunStats {
  /// Makespan over all channels, in PIM clock cycles.
  int64_t Cycles = 0;
  /// Makespan in nanoseconds.
  double Ns = 0.0;

  /// Command counts (expanded over block repeats).
  int64_t GwriteCmds = 0;
  int64_t GwriteBursts = 0;
  int64_t GActs = 0;
  int64_t CompCmds = 0;
  int64_t CompColumns = 0;
  int64_t ReadResCmds = 0;

  /// Busy cycles summed over channels (for utilization reporting).
  int64_t BusyCycleSum = 0;
  int ActiveChannels = 0;

  /// Per-channel phase accounting, one entry per non-empty channel in
  /// channel order. Fault-aware runs fold retry/stall time into the
  /// matching entry.
  std::vector<ChannelPhaseCycles> ChannelPhases;
};

/// Health classification of one channel after a fault-aware run.
enum class ChannelHealth : uint8_t {
  Ok,               ///< Completed fault-free.
  Degraded,         ///< Completed, but slower (retries / slow channel).
  Dead,             ///< Permanently unusable; made no progress.
  Stalled,          ///< A GWRITE never completed; watchdog fired.
  RetriesExhausted, ///< A transient fault outlived the retry budget.
};

/// Returns "ok"/"degraded"/"dead"/"stalled"/"retries-exhausted".
const char *channelHealthName(ChannelHealth H);

/// Per-channel outcome of a fault-aware run.
struct ChannelFaultOutcome {
  int Channel = 0;
  ChannelHealth Health = ChannelHealth::Ok;
  /// Commands that failed at least once.
  int TransientFaults = 0;
  /// Retry attempts actually issued.
  int Retries = 0;
  /// Extra cycles spent re-issuing commands and backing off.
  int64_t RetryCycles = 0;
  /// Channel completion time (watchdog bound for stalled channels, 0 for
  /// dead ones).
  int64_t Cycles = 0;

  /// True when the channel cannot finish its trace under any retry budget.
  bool persistent() const {
    return Health == ChannelHealth::Dead ||
           Health == ChannelHealth::Stalled ||
           Health == ChannelHealth::RetriesExhausted;
  }
};

/// Aggregate results of a fault-aware run: retry-inflated timing plus the
/// per-channel outcomes recovery decides on.
struct FaultyRunStats {
  PimRunStats Stats;
  std::vector<ChannelFaultOutcome> Outcomes;
  int TotalRetries = 0;

  /// True when at least one channel ended in a persistent failure — the
  /// kernel as planned did not complete and its result must not be used.
  bool anyPersistent() const {
    for (const ChannelFaultOutcome &O : Outcomes)
      if (O.persistent())
        return true;
    return false;
  }
  bool degraded() const {
    for (const ChannelFaultOutcome &O : Outcomes)
      if (O.Health != ChannelHealth::Ok)
        return true;
    return false;
  }
};

/// Executes DeviceTraces under a PimConfig.
class PimSimulator {
public:
  explicit PimSimulator(PimConfig Config) : Config(Config) {}

  const PimConfig &config() const { return Config; }

  /// Cycle count of a single channel's trace.
  int64_t simulateChannel(const ChannelTrace &Trace) const;

  /// Runs every channel and returns the makespan and aggregate counts. A
  /// channel whose blocks equal the previous non-empty channel's reuses
  /// that channel's simulation instead of repeating it.
  PimRunStats run(const DeviceTrace &Trace) const;

  /// Prices \p Copies channels that all carry \p Channel from a single
  /// simulation. Equal, field for field and counter for counter, to run()
  /// on a DeviceTrace whose channels 0..Copies-1 hold \p Channel.
  PimRunStats runReplicated(const ChannelTrace &Channel, int Copies) const;

  /// Fault-aware run: executes \p Trace with \p Faults injected under the
  /// retry/backoff/watchdog rules of \p Retry. Slow channels multiply their
  /// completion time, transient COMP/READRES failures cost bounded retries
  /// with exponential backoff, stalled GWRITEs are cut off at the watchdog
  /// bound, and dead channels make no progress. Deterministic: identical
  /// inputs yield identical outcomes. Callers must check anyPersistent()
  /// before trusting Stats — a persistent outcome means the kernel did not
  /// complete as planned.
  FaultyRunStats runWithFaults(const DeviceTrace &Trace,
                               const FaultModel &Faults,
                               const RetryPolicy &Retry) const;

  /// Energy in joules of a run: per-command energies plus the MAC energy of
  /// \p EffectiveMacs (the codegen knows how many multipliers were actually
  /// occupied; partially filled banks do not burn MAC energy) plus static
  /// power over the makespan.
  double energyJ(const PimRunStats &Stats, int64_t EffectiveMacs) const;

private:
  PimConfig Config;
};

} // namespace pf

#endif // PIMFLOW_PIM_PIMSIMULATOR_H
