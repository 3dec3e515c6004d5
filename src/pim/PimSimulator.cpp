//===- pim/PimSimulator.cpp - DRAM-PIM cycle simulator ----------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pim/PimSimulator.h"

#include <algorithm>

#include "obs/Counters.h"
#include "obs/FlightRecorder.h"

using namespace pf;

namespace {

/// Records that \p Copies channels each took \p Cycles: one
/// `pim.channel_cycles` histogram sample per channel, as one weighted
/// record. Every sample is an integer cycle count and the sums stay below
/// 2^53, so the weighted sum is exactly the per-copy one.
void recordChannelCycles(int64_t Cycles, int Copies = 1) {
  pf::obs::Registry &M = pf::obs::activeRegistry();
  if (M.enabled())
    M.histogram("pim.channel_cycles")
        .record(static_cast<double>(Cycles), Copies);
}

} // namespace

const char *pf::pimCmdName(PimCmdKind Kind) {
  switch (Kind) {
  case PimCmdKind::Gwrite:
    return "GWRITE";
  case PimCmdKind::Gwrite2:
    return "GWRITE_2";
  case PimCmdKind::Gwrite4:
    return "GWRITE_4";
  case PimCmdKind::GAct:
    return "G_ACT";
  case PimCmdKind::Comp:
    return "COMP";
  case PimCmdKind::ReadRes:
    return "READRES";
  }
  pf_unreachable("unknown PIM command kind");
}

namespace {

/// Per-channel timing state carried across commands.
struct ChannelState {
  int64_t FetchFree = 0;     ///< Fetch engine next-free cycle (GWRITE).
  int64_t BankFree = 0;      ///< Bank engine next-free cycle.
  int64_t LastGwriteDone = 0;
  int64_t LastGactDone = 0;
  int64_t LastCompDone = 0;
  int64_t Now = 0;           ///< Completion time of the latest command.

  /// Component-wise difference (per-iteration advance of each cursor).
  ChannelState minus(const ChannelState &Other) const {
    return ChannelState{FetchFree - Other.FetchFree,
                        BankFree - Other.BankFree,
                        LastGwriteDone - Other.LastGwriteDone,
                        LastGactDone - Other.LastGactDone,
                        LastCompDone - Other.LastCompDone,
                        Now - Other.Now};
  }

  /// Advances every cursor by \p Times iterations of \p Delta. The cursors
  /// may advance at *different* rates (e.g. the fetch engine falls behind
  /// a bank-bound pattern by a growing margin), so the shift is
  /// per-component.
  void advance(const ChannelState &Delta, int64_t Times) {
    FetchFree += Delta.FetchFree * Times;
    BankFree += Delta.BankFree * Times;
    LastGwriteDone += Delta.LastGwriteDone * Times;
    LastGactDone += Delta.LastGactDone * Times;
    LastCompDone += Delta.LastCompDone * Times;
    Now += Delta.Now * Times;
  }

  bool operator==(const ChannelState &) const = default;
};

/// Applies one command to \p S under \p C's timing rules.
void step(const PimConfig &C, ChannelState &S, const PimCommand &Cmd) {
  switch (Cmd.Kind) {
  case PimCmdKind::Gwrite:
  case PimCmdKind::Gwrite2:
  case PimCmdKind::Gwrite4: {
    const int64_t Buffers = Cmd.Kind == PimCmdKind::Gwrite    ? 1
                            : Cmd.Kind == PimCmdKind::Gwrite2 ? 2
                                                              : 4;
    const int64_t Bursts = Cmd.Count * Buffers;
    PF_ASSERT(Bursts >= 1, "GWRITE with no bursts");
    // First burst pays the cross-channel setup latency; the rest stream at
    // the column-to-column rate.
    const int64_t Duration = C.TGwrite + (Bursts - 1) * C.TCcdl;
    int64_t Start = S.FetchFree;
    if (!C.GwriteLatencyHiding)
      Start = std::max(Start, S.BankFree);
    const int64_t Done = Start + Duration;
    S.FetchFree = Done;
    S.LastGwriteDone = Done;
    if (!C.GwriteLatencyHiding)
      S.BankFree = Done; // Single serialized engine.
    S.Now = Done;
    return;
  }
  case PimCmdKind::GAct: {
    const int64_t Duration = C.TGact + (Cmd.Count - 1) * C.TRrd;
    int64_t Start = S.BankFree;
    if (!C.GwriteLatencyHiding)
      Start = std::max(Start, S.LastGwriteDone);
    const int64_t Done = Start + Duration;
    S.BankFree = Done;
    S.LastGactDone = Done;
    if (!C.GwriteLatencyHiding)
      S.FetchFree = Done;
    S.Now = Done;
    return;
  }
  case PimCmdKind::Comp: {
    // COMP consumes global-buffer data (GWRITE) against an open row
    // (G_ACT): it waits for both regardless of hiding.
    const int64_t Start = std::max({S.BankFree, S.LastGwriteDone,
                                    S.LastGactDone});
    const int64_t Done = Start + Cmd.Count * C.TComp;
    S.BankFree = Done;
    S.LastCompDone = Done;
    if (!C.GwriteLatencyHiding)
      S.FetchFree = Done;
    S.Now = Done;
    return;
  }
  case PimCmdKind::ReadRes: {
    const int64_t Duration = C.TReadRes + (Cmd.Count - 1) * C.TCcdl;
    const int64_t Start = std::max(S.BankFree, S.LastCompDone);
    const int64_t Done = Start + Duration;
    S.BankFree = Done;
    if (!C.GwriteLatencyHiding)
      S.FetchFree = Done;
    S.Now = Done;
    return;
  }
  }
  pf_unreachable("unknown PIM command kind");
}

/// Runs one iteration of \p Pattern.
void runPattern(const PimConfig &C, ChannelState &S,
                const std::vector<PimCommand> &Pattern) {
  for (const PimCommand &Cmd : Pattern)
    step(C, S, Cmd);
}

} // namespace

ChannelPhaseCycles &ChannelPhaseCycles::operator+=(const ChannelPhaseCycles &O) {
  GwriteCycles += O.GwriteCycles;
  GactCycles += O.GactCycles;
  CompCycles += O.CompCycles;
  ReadResCycles += O.ReadResCycles;
  RetryCycles += O.RetryCycles;
  StallCycles += O.StallCycles;
  CompletionCycles += O.CompletionCycles;
  return *this;
}

ChannelPhaseCycles pf::phaseCyclesOf(const PimConfig &Config,
                                     const ChannelTrace &Trace) {
  ChannelPhaseCycles P;
  for (const CommandBlock &B : Trace.Blocks) {
    if (B.Repeats <= 0)
      continue;
    for (const PimCommand &Cmd : B.Pattern) {
      const int64_t Cycles = B.Repeats * commandCycles(Config, Cmd);
      switch (Cmd.Kind) {
      case PimCmdKind::Gwrite:
      case PimCmdKind::Gwrite2:
      case PimCmdKind::Gwrite4:
        P.GwriteCycles += Cycles;
        break;
      case PimCmdKind::GAct:
        P.GactCycles += Cycles;
        break;
      case PimCmdKind::Comp:
        P.CompCycles += Cycles;
        break;
      case PimCmdKind::ReadRes:
        P.ReadResCycles += Cycles;
        break;
      }
    }
  }
  return P;
}

const char *pf::channelHealthName(ChannelHealth H) {
  switch (H) {
  case ChannelHealth::Ok:
    return "ok";
  case ChannelHealth::Degraded:
    return "degraded";
  case ChannelHealth::Dead:
    return "dead";
  case ChannelHealth::Stalled:
    return "stalled";
  case ChannelHealth::RetriesExhausted:
    return "retries-exhausted";
  }
  pf_unreachable("unknown channel health");
}

namespace {

/// Accumulates \p Channel's expanded command counts into \p Stats.
void accumulateCommands(const ChannelTrace &Channel, PimRunStats &Stats) {
  for (const CommandBlock &B : Channel.Blocks) {
    for (const PimCommand &Cmd : B.Pattern) {
      switch (Cmd.Kind) {
      case PimCmdKind::Gwrite:
        Stats.GwriteCmds += B.Repeats;
        Stats.GwriteBursts += B.Repeats * Cmd.Count;
        break;
      case PimCmdKind::Gwrite2:
        Stats.GwriteCmds += B.Repeats;
        Stats.GwriteBursts += B.Repeats * Cmd.Count * 2;
        break;
      case PimCmdKind::Gwrite4:
        Stats.GwriteCmds += B.Repeats;
        Stats.GwriteBursts += B.Repeats * Cmd.Count * 4;
        break;
      case PimCmdKind::GAct:
        Stats.GActs += B.Repeats * Cmd.Count;
        break;
      case PimCmdKind::Comp:
        Stats.CompCmds += B.Repeats;
        Stats.CompColumns += B.Repeats * Cmd.Count;
        break;
      case PimCmdKind::ReadRes:
        Stats.ReadResCmds += B.Repeats * Cmd.Count;
        break;
      }
    }
  }
}

bool isGwrite(PimCmdKind Kind) {
  return Kind == PimCmdKind::Gwrite || Kind == PimCmdKind::Gwrite2 ||
         Kind == PimCmdKind::Gwrite4;
}

/// Expanded command instances of \p Kind in \p Channel (COMP: one instance
/// per issued command; READRES: Count repetitions per command).
int64_t instancesOf(const ChannelTrace &Channel, PimCmdKind Kind) {
  int64_t N = 0;
  for (const CommandBlock &B : Channel.Blocks)
    for (const PimCommand &Cmd : B.Pattern) {
      if (Cmd.Kind != Kind)
        continue;
      N += Kind == PimCmdKind::Comp ? B.Repeats : B.Repeats * Cmd.Count;
    }
  return N;
}

bool hasGwrite(const ChannelTrace &Channel) {
  for (const CommandBlock &B : Channel.Blocks)
    for (const PimCommand &Cmd : B.Pattern)
      if (isGwrite(Cmd.Kind))
        return true;
  return false;
}

/// One non-empty channel trace's simulated results, shared by every
/// channel that carries the same blocks.
struct ChannelResult {
  int64_t Cycles = 0;
  ChannelPhaseCycles Phases;
  /// Command counts of one copy (only the count fields are used).
  PimRunStats Counts;
};

ChannelResult simulateOne(const PimSimulator &Sim,
                          const ChannelTrace &Channel) {
  ChannelResult R;
  R.Cycles = Sim.simulateChannel(Channel);
  R.Phases = phaseCyclesOf(Sim.config(), Channel);
  R.Phases.CompletionCycles = R.Cycles;
  accumulateCommands(Channel, R.Counts);
  return R;
}

/// Adds \p Copies channels, numbered from \p FirstChannel, that each
/// carry the trace \p R was simulated from.
void addChannels(PimRunStats &Stats, const ChannelResult &R,
                 int FirstChannel, int Copies) {
  recordChannelCycles(R.Cycles, Copies);
  Stats.Cycles = std::max(Stats.Cycles, R.Cycles);
  Stats.BusyCycleSum += Copies * R.Cycles;
  Stats.ActiveChannels += Copies;
  Stats.GwriteCmds += Copies * R.Counts.GwriteCmds;
  Stats.GwriteBursts += Copies * R.Counts.GwriteBursts;
  Stats.GActs += Copies * R.Counts.GActs;
  Stats.CompCmds += Copies * R.Counts.CompCmds;
  Stats.CompColumns += Copies * R.Counts.CompColumns;
  Stats.ReadResCmds += Copies * R.Counts.ReadResCmds;
  for (int I = 0; I < Copies; ++I) {
    Stats.ChannelPhases.push_back(R.Phases);
    Stats.ChannelPhases.back().Channel = FirstChannel + I;
  }
}

/// Sets Stats.Ns from the makespan, then raises it to the fetch-supply
/// floor: the GWRITE traffic of all channels is supplied by the GPU
/// channel group through the memory network, whose aggregate bandwidth
/// lower-bounds the kernel's duration. Returns true when the floor binds.
bool applyFetchFloor(const PimConfig &Config, PimRunStats &Stats) {
  Stats.Ns = Config.cyclesToNs(Stats.Cycles);
  const double FetchFloorNs = Config.fetchFloorNs(Stats.GwriteBursts);
  if (FetchFloorNs <= Stats.Ns)
    return false;
  Stats.Ns = FetchFloorNs;
  Stats.Cycles = static_cast<int64_t>(FetchFloorNs * Config.ClockGhz);
  return true;
}

/// Completes a fault-free run's stats and counts it.
void finishRun(const PimConfig &Config, PimRunStats &Stats) {
  if (applyFetchFloor(Config, Stats))
    obs::addCounter("pim.sim.fetch_floor_hits");
  obs::addCounter("pim.sim.runs");
  obs::addCounter("pim.sim.channels_simulated", Stats.ActiveChannels);
  obs::addCounter("pim.sim.commands", Stats.GwriteCmds + Stats.GActs +
                                          Stats.CompCmds + Stats.ReadResCmds);
}

} // namespace

int64_t PimSimulator::simulateChannel(const ChannelTrace &Trace) const {
  ChannelState S;
  for (const CommandBlock &B : Trace.Blocks) {
    if (B.Pattern.empty() || B.Repeats <= 0)
      continue;
    // Iterate explicitly until the per-iteration advance of every cursor
    // repeats (the max-plus dynamics have reached their periodic regime),
    // then extrapolate the remaining iterations per component. This is
    // cycle-exact: once the full delta vector is stationary, every later
    // iteration advances each cursor by exactly that delta.
    ChannelState Prev = S;
    ChannelState PrevDelta;
    bool HaveDelta = false;
    int StableCount = 0;
    for (int64_t Iter = 0; Iter < B.Repeats; ++Iter) {
      runPattern(Config, S, B.Pattern);
      const ChannelState Delta = S.minus(Prev);
      StableCount = HaveDelta && Delta == PrevDelta ? StableCount + 1 : 0;
      if (StableCount >= 2) {
        S.advance(Delta, B.Repeats - Iter - 1);
        break;
      }
      Prev = S;
      PrevDelta = Delta;
      HaveDelta = true;
    }
  }
  return S.Now;
}

PimRunStats PimSimulator::run(const DeviceTrace &Trace) const {
  PimRunStats Stats;
  // A mapping places one pattern on every channel it uses, so most
  // channels repeat their predecessor's blocks and reuse its results.
  const ChannelTrace *Last = nullptr;
  ChannelResult R;
  for (size_t ChIdx = 0; ChIdx < Trace.Channels.size(); ++ChIdx) {
    const ChannelTrace &Channel = Trace.Channels[ChIdx];
    if (Channel.empty())
      continue;
    if (!Last || Channel.Blocks != Last->Blocks)
      R = simulateOne(*this, Channel);
    Last = &Channel;
    addChannels(Stats, R, static_cast<int>(ChIdx), 1);
  }
  finishRun(Config, Stats);
  return Stats;
}

PimRunStats PimSimulator::runReplicated(const ChannelTrace &Channel,
                                        int Copies) const {
  PF_ASSERT(Copies >= 0, "negative channel copy count");
  PimRunStats Stats;
  if (!Channel.empty() && Copies > 0) {
    Stats.ChannelPhases.reserve(static_cast<size_t>(Copies));
    addChannels(Stats, simulateOne(*this, Channel), 0, Copies);
  }
  finishRun(Config, Stats);
  return Stats;
}

FaultyRunStats PimSimulator::runWithFaults(const DeviceTrace &Trace,
                                           const FaultModel &Faults,
                                           const RetryPolicy &Retry) const {
  FaultyRunStats R;
  PimRunStats &Stats = R.Stats;
  for (size_t ChIdx = 0; ChIdx < Trace.Channels.size(); ++ChIdx) {
    const ChannelTrace &Channel = Trace.Channels[ChIdx];
    if (Channel.empty())
      continue;
    const int Ch = static_cast<int>(ChIdx);
    ChannelFaultOutcome O;
    O.Channel = Ch;
    ++Stats.ActiveChannels;
    accumulateCommands(Channel, Stats);
    ChannelPhaseCycles Phases;
    Phases.Channel = Ch;

    if (Faults.channelDead(Ch)) {
      // No progress at all: the channel's share of the kernel is lost.
      O.Health = ChannelHealth::Dead;
      obs::addCounter("pim.sim.dead_channel_hits");
      obs::flightEvent(obs::FlightEventKind::ChannelDead, 0, Ch);
      R.Outcomes.push_back(O);
      Stats.ChannelPhases.push_back(Phases);
      continue;
    }
    if (Faults.channelStalled(Ch) && hasGwrite(Channel)) {
      // The stalled GWRITE never completes; the per-command watchdog bounds
      // the loss so the makespan computation cannot hang. The whole bound
      // is attributed as stall time — the channel produced nothing usable.
      O.Health = ChannelHealth::Stalled;
      O.Cycles = Retry.WatchdogCycles;
      obs::addCounter("pim.sim.watchdog_trips");
      obs::flightEvent(obs::FlightEventKind::WatchdogTrip, Retry.WatchdogCycles,
                       Ch, -1,
                       static_cast<double>(Retry.WatchdogCycles));
      Stats.Cycles = std::max(Stats.Cycles, O.Cycles);
      Stats.BusyCycleSum += O.Cycles;
      R.Outcomes.push_back(O);
      Phases.StallCycles = Retry.WatchdogCycles;
      Phases.CompletionCycles = Retry.WatchdogCycles;
      Stats.ChannelPhases.push_back(Phases);
      continue;
    }

    int64_t Cycles = simulateChannel(Channel);
    Phases = phaseCyclesOf(Config, Channel);
    Phases.Channel = Ch;
    const double Slow = Faults.slowFactor(Ch);
    if (Slow > 1.0) {
      Cycles = static_cast<int64_t>(static_cast<double>(Cycles) * Slow);
      // A slow channel stretches every command uniformly, so each phase
      // bucket inflates by the same factor.
      for (int64_t *Bucket :
           {&Phases.GwriteCycles, &Phases.GactCycles, &Phases.CompCycles,
            &Phases.ReadResCycles})
        *Bucket = static_cast<int64_t>(static_cast<double>(*Bucket) * Slow);
      O.Health = ChannelHealth::Degraded;
      obs::addCounter("pim.sim.slow_channel_hits");
    }
    for (const TransientFault &T : Faults.transientsOn(Ch)) {
      if (T.Kind != PimCmdKind::Comp && T.Kind != PimCmdKind::ReadRes)
        continue;
      // Faults aimed past the end of the trace never fire.
      if (T.Ordinal >= instancesOf(Channel, T.Kind))
        continue;
      ++O.TransientFaults;
      const int64_t CmdCycles =
          T.Kind == PimCmdKind::Comp ? Config.TComp : Config.TReadRes;
      const int Attempts = std::min(T.Fails, Retry.MaxRetries);
      O.Retries += Attempts;
      const int64_t Extra = Retry.retryCostCycles(Attempts, CmdCycles);
      O.RetryCycles += Extra;
      Cycles += Extra;
      obs::addCounter("pim.sim.transient_faults");
      obs::addCounter("pim.sim.retries", Attempts);
      obs::flightEvent(obs::FlightEventKind::RetryIssued, Cycles, Ch, Attempts,
                       static_cast<double>(Extra), pimCmdName(T.Kind));
      // The backoff component is the retry cost beyond the plain re-issues.
      const int64_t Backoff = Extra - Attempts * CmdCycles;
      if (Backoff > 0)
        obs::flightEvent(obs::FlightEventKind::BackoffWait, Cycles, Ch,
                         Attempts, static_cast<double>(Backoff));
      obs::recordMetric("pim.retry_cost_cycles", static_cast<double>(Extra));
      if (T.Fails > Retry.MaxRetries)
        O.Health = ChannelHealth::RetriesExhausted;
      else if (O.Health == ChannelHealth::Ok)
        O.Health = ChannelHealth::Degraded;
    }
    O.Cycles = Cycles;
    R.TotalRetries += O.Retries;
    recordChannelCycles(Cycles);
    obs::flightEvent(obs::FlightEventKind::PhaseTransition, Cycles, Ch, -1,
                     static_cast<double>(Cycles),
                     channelHealthName(O.Health));
    Stats.Cycles = std::max(Stats.Cycles, Cycles);
    Stats.BusyCycleSum += Cycles;
    Phases.RetryCycles = O.RetryCycles;
    Phases.CompletionCycles = Cycles;
    Stats.ChannelPhases.push_back(Phases);
    R.Outcomes.push_back(O);
  }
  // Same fetch-supply floor as the fault-free path: retries do not add
  // GWRITE traffic, so the floor is unchanged.
  applyFetchFloor(Config, Stats);
  obs::addCounter("pim.sim.fault_runs");
  return R;
}

double PimSimulator::energyJ(const PimRunStats &Stats,
                             int64_t EffectiveMacs) const {
  double Pj = 0.0;
  Pj += static_cast<double>(Stats.GActs) * Config.ActEnergyPj;
  Pj += static_cast<double>(Stats.CompColumns) * Config.CompFixedPj;
  Pj += static_cast<double>(EffectiveMacs) * Config.MacEnergyPj;
  Pj += static_cast<double>(Stats.GwriteBursts) *
        static_cast<double>(Config.BurstBytes) * Config.GwriteEnergyPerBytePj;
  Pj += static_cast<double>(Stats.ReadResCmds) * Config.ReadResEnergyPj;
  // Static power of every PIM channel over the kernel's lifetime.
  const double StaticJ = Stats.Ns * 1e-9 * Config.StaticPowerWPerChannel *
                         static_cast<double>(Config.Channels);
  return Pj * 1e-12 + StaticJ;
}
