//===- obs/Attribution.cpp - Timeline performance attribution ---*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Attribution.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "obs/Counters.h"
#include "support/Format.h"

using namespace pf;
using namespace pf::obs;

namespace {

/// Scheduled times accumulate float error over long chains; compare with a
/// scale-relative epsilon.
bool near(double A, double B) {
  return std::fabs(A - B) <=
         1e-6 * std::max(1.0, std::max(std::fabs(A), std::fabs(B)));
}

/// Merges \p Busy (already start-sorted) and fills merged busy time plus
/// the idle holes of [0, Total].
void fillGaps(LaneUsage &Lane, double Total) {
  Lane.BusyNs = 0.0;
  double Cursor = 0.0;
  for (const LaneInterval &I : Lane.Busy) {
    if (I.StartNs > Cursor && !near(I.StartNs, Cursor))
      Lane.Gaps.push_back(IdleGap{Cursor, I.StartNs});
    const double End = std::max(Cursor, I.EndNs);
    Lane.BusyNs += End - std::max(Cursor, I.StartNs);
    Cursor = End;
  }
  if (Total > Cursor && !near(Total, Cursor))
    Lane.Gaps.push_back(IdleGap{Cursor, Total});
  Lane.IdleNs = std::max(0.0, Total - Lane.BusyNs);
}

} // namespace

const char *pf::obs::criticalReasonName(CriticalReason R) {
  switch (R) {
  case CriticalReason::Start:
    return "start";
  case CriticalReason::Dependency:
    return "dependency";
  case CriticalReason::DeviceBusy:
    return "device-busy";
  }
  return "?";
}

AttributionReport pf::obs::attributeTimeline(const Graph &G,
                                             const Timeline &TL,
                                             const SystemConfig &Config) {
  AttributionReport R;
  R.TotalNs = TL.TotalNs;
  if (TL.Nodes.empty())
    return R;

  std::unordered_map<NodeId, const NodeSchedule *> Sched;
  for (const NodeSchedule &S : TL.Nodes)
    Sched.emplace(S.Id, &S);

  // Producers of a node: one entry per distinct produced input value, with
  // the handoff the scheduler charged (SyncOverheadNs across devices).
  auto producersOf = [&](const NodeSchedule &S) {
    std::vector<const NodeSchedule *> Prods;
    std::vector<ValueId> Seen;
    for (ValueId In : G.node(S.Id).Inputs) {
      const NodeId P = G.producer(In);
      if (P == InvalidNode)
        continue;
      if (std::find(Seen.begin(), Seen.end(), In) != Seen.end())
        continue;
      Seen.push_back(In);
      auto It = Sched.find(P);
      if (It != Sched.end())
        Prods.push_back(It->second);
    }
    return Prods;
  };
  auto handoffNs = [&](const NodeSchedule &From, const NodeSchedule &To) {
    return From.Dev != To.Dev ? Config.SyncOverheadNs : 0.0;
  };

  // --- Critical chain: walk backwards from the node that ends at the
  // makespan, asking at each node which constraint pinned its start.
  const NodeSchedule *Last = &TL.Nodes.front();
  for (const NodeSchedule &S : TL.Nodes)
    if (S.EndNs > Last->EndNs)
      Last = &S;

  // Lane predecessor: the latest-ending lane-occupying node that finished
  // by the time S started (the node whose completion freed the lane).
  auto lanePredecessor = [&](const NodeSchedule &S) {
    const NodeSchedule *Pred = nullptr;
    for (const NodeSchedule &O : TL.Nodes) {
      if (&O == &S || O.durationNs() <= 0.0 || O.Dev != S.Dev)
        continue;
      if (O.EndNs > S.StartNs && !near(O.EndNs, S.StartNs))
        continue;
      if (!Pred || O.EndNs > Pred->EndNs)
        Pred = &O;
    }
    return Pred;
  };

  std::vector<CriticalStep> Chain;
  std::unordered_set<NodeId> OnChain;
  const NodeSchedule *Cur = Last;
  while (Cur && !OnChain.count(Cur->Id)) {
    OnChain.insert(Cur->Id);
    CriticalStep Step;
    Step.Id = Cur->Id;
    Step.Dev = Cur->Dev;
    Step.StartNs = Cur->StartNs;
    Step.EndNs = Cur->EndNs;

    const NodeSchedule *Next = nullptr;
    if (near(Cur->StartNs, 0.0)) {
      Step.Why = CriticalReason::Start;
    } else {
      // Prefer the dependency explanation when it binds: it names the
      // producer the node actually waited for, which is more actionable
      // than "the lane happened to be busy until then".
      const NodeSchedule *BestProd = nullptr;
      double BestAvail = 0.0;
      for (const NodeSchedule *P : producersOf(*Cur)) {
        const double Avail = P->EndNs + handoffNs(*P, *Cur);
        if (!BestProd || Avail > BestAvail)
          BestProd = P, BestAvail = Avail;
      }
      if (BestProd && near(BestAvail, Cur->StartNs)) {
        Step.Why = CriticalReason::Dependency;
        Step.Blocker = BestProd->Id;
        Next = BestProd;
      } else if (const NodeSchedule *Pred = lanePredecessor(*Cur)) {
        Step.Why = CriticalReason::DeviceBusy;
        Step.Blocker = Pred->Id;
        Next = Pred;
      } else if (BestProd) {
        // The start is later than every constraint we can reconstruct
        // (possible only for timelines not produced by the engine's list
        // scheduler); fall back to the tightest producer.
        Step.Why = CriticalReason::Dependency;
        Step.Blocker = BestProd->Id;
        Next = BestProd;
      } else {
        Step.Why = CriticalReason::Start;
      }
    }
    Chain.push_back(Step);
    Cur = Next;
  }
  std::reverse(Chain.begin(), Chain.end());
  R.Critical.Steps = std::move(Chain);
  R.Critical.LengthNs = Last->EndNs;
  for (const CriticalStep &S : R.Critical.Steps) {
    const double Dur = S.EndNs - S.StartNs;
    (S.Dev == Device::Pim ? R.Critical.PimNs : R.Critical.GpuNs) += Dur;
  }

  // --- Slack: a backward pass over reverse topological order. A node's
  // completion may slip until it would delay a consumer's latest start
  // (minus the handoff) or its lane successor's latest start.
  std::unordered_map<NodeId, double> LatestEnd;
  for (const NodeSchedule &S : TL.Nodes)
    LatestEnd[S.Id] = R.TotalNs;

  // Lane successors under the schedule's order: per lane, sort occupying
  // nodes by start; each constrains its predecessor.
  std::unordered_map<NodeId, const NodeSchedule *> LaneSucc;
  for (Device Dev : {Device::Gpu, Device::Pim}) {
    std::vector<const NodeSchedule *> Lane;
    for (const NodeSchedule &S : TL.Nodes)
      if (S.Dev == Dev && S.durationNs() > 0.0)
        Lane.push_back(&S);
    std::sort(Lane.begin(), Lane.end(),
              [](const NodeSchedule *A, const NodeSchedule *B) {
                return A->StartNs < B->StartNs;
              });
    for (size_t I = 0; I + 1 < Lane.size(); ++I)
      LaneSucc[Lane[I]->Id] = Lane[I + 1];
  }

  std::vector<NodeId> Topo = G.tryTopoOrder();
  for (auto It = Topo.rbegin(); It != Topo.rend(); ++It) {
    auto SIt = Sched.find(*It);
    if (SIt == Sched.end())
      continue;
    const NodeSchedule &S = *SIt->second;
    double &LE = LatestEnd[S.Id];
    for (ValueId Out : G.node(S.Id).Outputs) {
      for (NodeId C : G.consumers(Out)) {
        auto CIt = Sched.find(C);
        if (CIt == Sched.end())
          continue;
        const NodeSchedule &CS = *CIt->second;
        const double LatestStart =
            LatestEnd.at(CS.Id) - CS.durationNs() - handoffNs(S, CS);
        LE = std::min(LE, LatestStart);
      }
    }
    auto LIt = LaneSucc.find(S.Id);
    if (LIt != LaneSucc.end()) {
      const NodeSchedule &NS = *LIt->second;
      LE = std::min(LE, LatestEnd.at(NS.Id) - NS.durationNs());
    }
  }
  for (const NodeSchedule &S : TL.Nodes) {
    NodeSlack NS;
    NS.Id = S.Id;
    NS.SlackNs = std::max(0.0, LatestEnd.at(S.Id) - S.EndNs);
    NS.Critical = near(NS.SlackNs, 0.0);
    R.Slack.push_back(NS);
  }

  // --- Lane usage and per-channel phases, from each kernel's record: a
  // kernel occupies channels 0..usedChannels()-1 of the group it ran on,
  // and each of them carries the record's phase cycles.
  LaneUsage Gpu;
  Gpu.Name = "gpu";
  Gpu.Channel = -1;
  for (const NodeSchedule &S : TL.Nodes)
    if (S.Dev != Device::Pim && S.durationNs() > 0.0)
      Gpu.Busy.push_back(LaneInterval{S.Id, S.StartNs, S.EndNs});

  std::map<int, LaneUsage> Channels;
  std::map<int, ChannelPhaseCycles> Phases;
  for (const PimKernelRecord &K : TL.Kernels) {
    const NodeSchedule &S = TL.scheduleOf(K.Id);
    for (int Ch = 0; Ch < K.usedChannels(); ++Ch) {
      LaneUsage &Lane = Channels[Ch];
      if (Lane.Name.empty()) {
        Lane.Name = formatStr("pim.ch%d", Ch);
        Lane.Channel = Ch;
      }
      Lane.Busy.push_back(LaneInterval{S.Id, S.StartNs, S.EndNs});
      Phases[Ch] += K.ChannelPhases;
      Phases[Ch].Channel = Ch;
    }
  }

  auto sortBusy = [](LaneUsage &Lane) {
    std::sort(Lane.Busy.begin(), Lane.Busy.end(),
              [](const LaneInterval &A, const LaneInterval &B) {
                return A.StartNs < B.StartNs;
              });
  };
  sortBusy(Gpu);
  fillGaps(Gpu, R.TotalNs);
  R.Lanes.push_back(std::move(Gpu));
  for (auto &[Ch, Lane] : Channels) {
    sortBusy(Lane);
    fillGaps(Lane, R.TotalNs);
    R.Lanes.push_back(std::move(Lane));
  }
  for (const auto &[Ch, P] : Phases)
    R.Phases.push_back(P);
  return R;
}

void pf::obs::exportPhaseCounters(
    const std::vector<ChannelPhaseCycles> &Phases) {
  for (const ChannelPhaseCycles &P : Phases) {
    addCounter(formatStr("pim.phase_cycles.gwrite.ch%d", P.Channel),
               P.GwriteCycles);
    addCounter(formatStr("pim.phase_cycles.g_act.ch%d", P.Channel),
               P.GactCycles);
    addCounter(formatStr("pim.phase_cycles.comp.ch%d", P.Channel),
               P.CompCycles);
    addCounter(formatStr("pim.phase_cycles.readres.ch%d", P.Channel),
               P.ReadResCycles);
    if (P.RetryCycles)
      addCounter(formatStr("pim.phase_cycles.retry.ch%d", P.Channel),
                 P.RetryCycles);
    if (P.StallCycles)
      addCounter(formatStr("pim.phase_cycles.stall.ch%d", P.Channel),
                 P.StallCycles);
  }
}
