//===- runtime/ExecutionEngine.cpp - GPU/PIM parallel execution -*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ExecutionEngine.h"

#include <algorithm>
#include <bit>
#include <map>

#include "codegen/PimKernelSpec.h"
#include "obs/Counters.h"
#include "obs/FlightRecorder.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "pim/PimSimulator.h"
#include "support/Format.h"
#include "support/StringUtil.h"

using namespace pf;

const NodeSchedule *Timeline::find(NodeId Id) const {
  for (const NodeSchedule &S : Nodes)
    if (S.Id == Id)
      return &S;
  return nullptr;
}

const NodeSchedule &Timeline::scheduleOf(NodeId Id) const {
  if (const NodeSchedule *S = find(Id))
    return *S;
  fatal(formatStr("timeline has no schedule entry for node %d (%zu nodes "
                  "scheduled); use Timeline::find to probe partial timelines",
                  static_cast<int>(Id), Nodes.size()));
}

ExecutionEngine::ExecutionEngine(const SystemConfig &Config)
    : Config(Config), Gpu(Config.Gpu), MemOpt(Config.MemoryOptimizer),
      Gen(Config.Pim.Channels > 0 ? Config.Pim : PimConfig::newtonPlus(),
          Config.Codegen),
      Sim(Config.Pim) {}

namespace {

/// Elementwise operators that never run as standalone kernels: the GPU
/// runtime (TVM + cuDNN/CUTLASS) fuses them into the producing kernel's
/// epilogue, and for PIM-produced tensors the activation is applied while
/// results drain through the output path (the GDDR6 AiM device the paper
/// extends supports "various activation functions" in hardware).
bool isFusableEpilogue(OpKind Kind) {
  switch (Kind) {
  case OpKind::Relu:
  case OpKind::Relu6:
  case OpKind::Sigmoid:
  case OpKind::SiLU:
  case OpKind::Tanh:
  case OpKind::Gelu:
  case OpKind::Add:
  case OpKind::Mul:
  case OpKind::BatchNorm:
    return true;
  default:
    return false;
  }
}

/// Adds a run's per-channel command mix to its `pim.<command>.ch<N>`
/// counters. Every used channel of a kernel carries the same stream, so
/// each takes an equal share of the kernel's totals; the shares are summed
/// over the run first, so each counter is looked up once.
void recordCommandMix(obs::Registry &R,
                      const std::vector<PimKernelRecord> &Kernels) {
  constexpr std::pair<std::string_view, int64_t PimKernelRecord::*>
      Families[] = {{"pim.gwrite_bursts.ch", &PimKernelRecord::GwriteBursts},
                    {"pim.g_acts.ch", &PimKernelRecord::GActs},
                    {"pim.comp_columns.ch", &PimKernelRecord::CompColumns},
                    {"pim.read_res.ch", &PimKernelRecord::ReadResCmds}};
  int Channels = 0;
  for (const PimKernelRecord &K : Kernels)
    Channels = std::max(Channels, K.usedChannels());
  std::string Name;
  for (const auto &[Prefix, Total] : Families)
    for (int C = 0; C < Channels; ++C) {
      int64_t Share = 0;
      for (const PimKernelRecord &K : Kernels)
        if (C < K.usedChannels())
          Share += K.*Total / K.usedChannels();
      Name = Prefix;
      appendInt(Name, C);
      R.counter(Name).add(Share);
    }
}

/// What the list scheduler knows of one node, by topological index.
struct SchedNode {
  Device Dev = Device::Gpu;
  double Duration = 0.0;
  int Pending = 0;      ///< Unscheduled producer nodes.
  double ReadyNs = 0.0; ///< Max over scheduled deps (incl. handoffs).
  double EnergyJ = 0.0; ///< What the timeline records; not scheduled on.
};

/// The engine's list scheduler over \p Nodes, indexed by topological index
/// with their devices, durations and pending producer counts set. Nodes
/// are dispatched to their device queues greedily by earliest start time,
/// so independent GPU and PIM work (MD-DP halves, pipeline stages) overlaps
/// as the hardware would run it rather than serializing in topological
/// order. \p ForEachConsumer(I, Visit) calls Visit(J) with the topological
/// index J of each consumer of node I, once per output it reads;
/// \p Place(I, Start, End) records each placement, in schedule order.
/// Returns how many nodes were left when none was ready: 0 once all are
/// placed.
template <typename ConsumersFn, typename PlaceFn>
size_t listSchedule(std::vector<SchedNode> &Nodes, double SyncNs,
                    int64_t &Handoffs, ConsumersFn &&ForEachConsumer,
                    PlaceFn &&Place) {
  // Topological indices of the nodes whose producers have all been
  // scheduled, in increasing order.
  std::vector<size_t> Ready;
  for (size_t I = 0; I < Nodes.size(); ++I)
    if (Nodes[I].Pending == 0)
      Ready.push_back(I);

  double GpuFree = 0.0, PimFree = 0.0;
  for (size_t Remaining = Nodes.size(); Remaining > 0; --Remaining) {
    if (Ready.empty())
      return Remaining;
    // Pick the ready node with the earliest achievable start; ties go to
    // the lowest topological index for determinism.
    size_t BestPos = 0;
    double BestStart = 0.0;
    for (size_t P = 0; P < Ready.size(); ++P) {
      const SchedNode &NI = Nodes[Ready[P]];
      const double Free = NI.Dev == Device::Pim ? PimFree : GpuFree;
      const double Start = std::max(Free, NI.ReadyNs);
      if (P == 0 || Start < BestStart)
        BestPos = P, BestStart = Start;
    }
    const size_t Best = Ready[BestPos];
    Ready.erase(Ready.begin() + static_cast<std::ptrdiff_t>(BestPos));

    const SchedNode &NI = Nodes[Best];
    const double End = BestStart + NI.Duration;
    // Zero-duration nodes (fused elementwise, free data movement) do not
    // occupy the device.
    if (NI.Duration > 0.0)
      (NI.Dev == Device::Pim ? PimFree : GpuFree) = End;
    Place(Best, BestStart, End);

    // Release consumers. Cross-device handoffs cost a synchronization
    // only: GPU and PIM channels share one physical memory, so a PIM
    // kernel's input fetch is modeled by its GWRITE commands and a PIM
    // result is read in place by the consumer through the channel
    // interconnect.
    ForEachConsumer(Best, [&](size_t C) {
      SchedNode &CI = Nodes[C];
      double Avail = End;
      if (CI.Dev != NI.Dev) {
        Avail += SyncNs;
        ++Handoffs;
      }
      CI.ReadyNs = std::max(CI.ReadyNs, Avail);
      if (--CI.Pending == 0)
        Ready.insert(std::lower_bound(Ready.begin(), Ready.end(), C), C);
    });
  }
  return 0;
}

} // namespace

double ExecutionEngine::gpuDurationNs(const NodeView &N) const {
  return isFusableEpilogue(N.Kind) ? 0.0 : gpuCost(N).Ns;
}

ExecutionEngine::GpuCost
ExecutionEngine::gpuCost(const NodeView &N) const {
  switch (MemOpt.classify(N)) {
  case DataMovementCost::Free:
    return {};
  case DataMovementCost::Copy: {
    // A copy is a pure-bandwidth kernel.
    const double Bytes = static_cast<double>(MemOpt.copyBytes(N));
    GpuKernelTime T;
    T.Ns = Bytes / Config.Gpu.memBandwidth() * 1e9 +
           Config.Gpu.LightKernelLaunchNs;
    T.Utilization = 0.3;
    return {T.Ns, Gpu.kernelEnergyJ(T)};
  }
  case DataMovementCost::NotDataMovement:
    break;
  }
  const GpuKernelTime T = Gpu.nodeTime(N);
  return {T.Ns, Gpu.kernelEnergyJ(T)};
}

double ExecutionEngine::nodeLatencyNs(const Graph &G, NodeId Id) const {
  return gpuCost(GraphNodeView(G, Id)).Ns;
}

double ExecutionEngine::contentionSlowdown(double FetchCycles,
                                           double MakespanNs) const {
  const double FetchNs =
      Config.Pim.cyclesToNs(static_cast<int64_t>(FetchCycles));
  const double Fraction = std::min(1.0, FetchNs / MakespanNs);
  return 1.0 + Config.ContentionFactor * Fraction;
}

double ExecutionEngine::makespanNs(std::span<const ScheduleTask> Tasks) const {
  const size_t NumTasks = Tasks.size();
  PF_ASSERT(NumTasks <= 32, "a task list holds at most 32 tasks");
  // Kahn's order as Graph::tryTopoOrder builds it: a FIFO seeded in
  // node-id order, each node's consumers appended in node-id order.
  std::vector<size_t> Order, TopoIdx(NumTasks);
  std::vector<int> Pending(NumTasks);
  for (size_t J = 0; J < NumTasks; ++J) {
    Pending[J] = std::popcount(Tasks[J].Inputs);
    if (Pending[J] == 0)
      Order.push_back(J);
  }
  for (size_t Head = 0; Head < Order.size(); ++Head)
    for (size_t J = 0; J < NumTasks; ++J)
      if ((Tasks[J].Inputs >> Order[Head] & 1u) && --Pending[J] == 0)
        Order.push_back(J);
  PF_ASSERT(Order.size() == NumTasks, "task list has a dependency cycle");
  for (size_t I = 0; I < NumTasks; ++I)
    TopoIdx[Order[I]] = I;

  auto Pass = [&](double GpuScale) {
    std::vector<SchedNode> Nodes(NumTasks);
    for (size_t I = 0; I < NumTasks; ++I) {
      const ScheduleTask &T = Tasks[Order[I]];
      Nodes[I].Dev = T.Dev;
      Nodes[I].Duration = T.Dev == Device::Pim ? T.Ns : T.Ns * GpuScale;
      Nodes[I].Pending = std::popcount(T.Inputs);
    }
    double Total = 0.0;
    int64_t Handoffs = 0;
    const size_t Left = listSchedule(
        Nodes, Config.SyncOverheadNs, Handoffs,
        [&](size_t I, auto &&Visit) {
          for (size_t J = 0; J < NumTasks; ++J)
            if (Tasks[J].Inputs >> Order[I] & 1u)
              Visit(TopoIdx[J]);
        },
        [&](size_t, double, double End) { Total = std::max(Total, End); });
    PF_ASSERT(Left == 0, "acyclic task list left unscheduled");
    return Total;
  };

  double Total = Pass(1.0);
  if (Config.ModelContention && Config.hasPim() && Total > 0.0) {
    double FetchCycles = 0.0;
    for (const ScheduleTask &T : Tasks)
      if (T.Dev == Device::Pim)
        FetchCycles += static_cast<double>(T.GwriteBursts) *
                       static_cast<double>(Config.Pim.TCcdl);
    Total = Pass(contentionSlowdown(FetchCycles, Total));
  }
  return Total;
}

Timeline ExecutionEngine::execute(const Graph &G) {
  DiagnosticEngine DE;
  std::optional<Timeline> TL = tryExecute(G, DE);
  if (!TL)
    fatal(formatStr("cannot execute graph '%s':\n%s", G.name().c_str(),
                    DE.render().c_str()));
  return *std::move(TL);
}

std::optional<Timeline>
ExecutionEngine::tryExecute(const Graph &G, DiagnosticEngine &DE,
                            const FaultModel *Faults,
                            const RetryPolicy *Retry) {
  PF_TRACE_SCOPE_CAT("engine.execute", "execute");
  PF_ASSERT(!Faults || Retry, "fault-aware execution needs a retry policy");
  obs::addCounter("engine.executions");
  obs::addCounter("engine.nodes_scheduled",
                  static_cast<int64_t>(G.numNodes()));
  obs::flightEvent(obs::FlightEventKind::ExecStart, 0,
                   static_cast<int32_t>(G.numNodes()), Config.Pim.Channels);
  // Any failed tryExecute leaves a flight trace behind (when a dump path is
  // configured): record the error event, then snapshot all rings.
  auto FailExec = [](const char *What) {
    obs::flightEvent(obs::FlightEventKind::ExecError, 0, -1, -1, 0.0, What);
    obs::FlightRecorder::instance().autoDump(What);
  };

  // A cyclic dependency set never becomes ready, so Kahn's order comes up
  // short — surface a diagnostic instead of silently scheduling a partial
  // graph (or spinning forever looking for a ready node).
  const std::vector<NodeId> Order = G.tryTopoOrder();
  if (Order.size() != G.numNodes()) {
    DE.error(DiagCode::ExecUnschedulable, G.name(),
             formatStr("dependency cycle: only %zu of %zu live nodes are "
                       "schedulable",
                       Order.size(), G.numNodes()));
    FailExec("exec.unschedulable: dependency cycle");
    return std::nullopt;
  }

  // Each node's topological index, and by that index its count of distinct
  // produced inputs; each value's live consumers are the graph's own
  // def-use lists.
  const size_t NumNodes = G.numNodesIncludingDead();
  std::vector<size_t> TopoIdx(NumNodes, 0);
  std::vector<int> ProducedInputs(Order.size(), 0);
  for (size_t I = 0; I < Order.size(); ++I) {
    const std::vector<ValueId> &Inputs = G.node(Order[I]).Inputs;
    TopoIdx[static_cast<size_t>(Order[I])] = I;
    for (auto In = Inputs.begin(); In != Inputs.end(); ++In)
      if (G.producer(*In) != InvalidNode &&
          std::find(Inputs.begin(), In, *In) == In)
        ++ProducedInputs[I];
  }

  // Each PIM node's kept plan, by NodeId. Planning reads nothing but the
  // kernel spec, so nodes of equal specs share one entry, in this run and
  // in every later run of this engine. A fault-aware run also plans each
  // of its kernels with the trace, for this run only: runWithFaults
  // re-simulates the trace, and a kept entry has none. Where the engine
  // keeps no entry yet, the traced plan's becomes it.
  const bool FaultAware = Faults && !Faults->empty();
  std::vector<const KeptPlan *> KeptOf(NumNodes, nullptr);
  std::map<PimKernelSpec, PimKernelPlan> Traced;
  std::vector<const PimKernelPlan *> TracedOf(FaultAware ? NumNodes : 0,
                                              nullptr);
  auto Keep = [&](const PimKernelPlan &Plan) {
    return KeptPlan{Plan.Ns, Sim.energyJ(Plan.Stats, Plan.EffectiveMacs),
                    recordOf(InvalidNode, Plan)};
  };
  auto KeptFor = [&](NodeId Id) -> const KeptPlan & {
    const size_t I = static_cast<size_t>(Id);
    if (KeptOf[I])
      return *KeptOf[I];
    const PimKernelSpec Spec = lowerToPimSpec(G, Id);
    auto It = KeptPlans.find(Spec);
    if (FaultAware) {
      auto T = Traced.find(Spec);
      if (T == Traced.end())
        T = Traced.emplace(Spec, Gen.plan(Spec)).first;
      TracedOf[I] = &T->second;
      if (It == KeptPlans.end())
        It = KeptPlans.emplace(Spec, Keep(T->second)).first;
    } else if (It == KeptPlans.end()) {
      It = KeptPlans.emplace(Spec, Keep(Gen.planUntraced(Spec))).first;
    }
    return *(KeptOf[I] = &It->second);
  };

  // Cross-device handoffs of the latest pass: only the final one counts.
  int64_t Handoffs = 0;

  // One scheduling pass; \p GpuScale inflates GPU kernel durations (used by
  // the contention model's second pass).
  auto SchedulePass = [&](double GpuScale) -> std::optional<Timeline> {
    Timeline TL;
    TL.Nodes.reserve(Order.size());
    Handoffs = 0;

    // Per-node properties, by topological index (device annotations fix
    // the producing device of every value up front).
    std::vector<SchedNode> Info(Order.size());
    for (size_t I = 0; I < Order.size(); ++I) {
      const NodeId Id = Order[I];
      const Node &N = G.node(Id);
      SchedNode &NI = Info[I];
      NI.Dev = N.Dev == Device::Pim ? Device::Pim : Device::Gpu;
      if (NI.Dev == Device::Pim) {
        if (!Config.hasPim()) {
          DE.error(DiagCode::ExecNoPimChannels, N.Name,
                   "node is annotated for PIM but the system configuration "
                   "has zero PIM channels");
          FailExec("exec.no-pim-channels");
          return std::nullopt;
        }
        const KeptPlan &Kept = KeptFor(Id);
        if (FaultAware) {
          const PimKernelPlan &Plan = *TracedOf[static_cast<size_t>(Id)];
          const FaultyRunStats FS =
              Sim.runWithFaults(Plan.Trace, *Faults, *Retry);
          if (FS.anyPersistent()) {
            // Recovery must remap or fall back before the engine runs; a
            // persistent fault here would make the timeline silently wrong.
            DE.error(DiagCode::FaultUnrecovered, N.Name,
                     "persistent channel fault reached the execution engine "
                     "unrecovered");
            FailExec("fault.unrecovered");
            return std::nullopt;
          }
          obs::addCounter("engine.fault_retries", FS.TotalRetries);
          NI.Duration = FS.Stats.Ns;
          NI.EnergyJ = Sim.energyJ(FS.Stats, Plan.EffectiveMacs);
        } else {
          NI.Duration = Kept.Ns;
          NI.EnergyJ = Kept.EnergyJ;
        }
      } else if (isFusableEpilogue(N.Kind)) {
        // Elementwise nodes fuse into their producer's epilogue (GPU) or
        // the PIM drain path: no standalone kernel either way.
        NI.Duration = 0.0;
        NI.EnergyJ = 0.0;
      } else {
        const GpuCost C = gpuCost(GraphNodeView(G, Id));
        NI.Duration = C.Ns * GpuScale;
        NI.EnergyJ = C.EnergyJ;
      }
      NI.Pending = ProducedInputs[I];
    }

    const size_t Left = listSchedule(
        Info, Config.SyncOverheadNs, Handoffs,
        [&](size_t I, auto &&Visit) {
          for (ValueId Out : G.node(Order[I]).Outputs)
            for (NodeId Consumer : G.consumers(Out))
              Visit(TopoIdx[static_cast<size_t>(Consumer)]);
        },
        [&](size_t I, double Start, double End) {
          const SchedNode &NI = Info[I];
          (NI.Dev == Device::Pim ? TL.PimBusyNs : TL.GpuBusyNs) +=
              NI.Duration;
          TL.Nodes.push_back(
              NodeSchedule{Order[I], NI.Dev, Start, End, NI.EnergyJ});
          TL.TotalNs = std::max(TL.TotalNs, End);
        });
    if (Left > 0) {
      // Unreachable for acyclic graphs (checked above), but a diagnostic
      // beats an infinite loop if the invariant ever breaks.
      DE.error(DiagCode::ExecUnschedulable, G.name(),
               formatStr("scheduler deadlock with %zu node(s) unscheduled",
                         Left));
      FailExec("exec.unschedulable: scheduler deadlock");
      return std::nullopt;
    }
    return TL;
  };

  std::optional<Timeline> MaybeTL = SchedulePass(1.0);
  if (!MaybeTL)
    return std::nullopt;
  Timeline TL = *std::move(MaybeTL);

  if (Config.ModelContention && Config.hasPim() && TL.TotalNs > 0.0) {
    // PIM fetch traffic occupies the shared memory controller; GPU kernels
    // overlapping it slow down proportionally to the fetch-busy fraction.
    double FetchCycles = 0.0;
    for (const KeptPlan *Kept : KeptOf)
      if (Kept)
        FetchCycles += static_cast<double>(Kept->Record.GwriteBursts) *
                       static_cast<double>(Config.Pim.TCcdl);
    const double Slowdown = contentionSlowdown(FetchCycles, TL.TotalNs);
    obs::addCounter("engine.contention_reschedules");
    // The first pass succeeded, so the rescaled pass cannot fail: scaling
    // GPU durations changes no schedulability property.
    MaybeTL = SchedulePass(Slowdown);
    if (!MaybeTL)
      return std::nullopt;
    TL = *std::move(MaybeTL);
    TL.ContentionSlowdown = Slowdown;
  }

  for (const NodeSchedule &S : TL.Nodes) {
    if (S.Dev != Device::Pim)
      continue;
    PimKernelRecord &K =
        TL.Kernels.emplace_back(KeptOf[static_cast<size_t>(S.Id)]->Record);
    K.Id = S.Id;
  }

  // Kernel energies plus GPU static power while idle within the makespan
  // (the PIM kernels' energy already folds in their channels' background
  // power).
  double Energy = 0.0;
  for (const NodeSchedule &S : TL.Nodes)
    Energy += S.EnergyJ;
  Energy += Gpu.idleEnergyJ(std::max(0.0, TL.TotalNs - TL.GpuBusyNs));
  TL.EnergyJ = Energy;

  // Telemetry off the final timeline only (the contention model's first
  // pass would double-count), each metric looked up once per run: the
  // command mix, the handoffs and per-node latency quantiles. Then the
  // completion event for the flight trace.
  obs::Registry &Reg = obs::activeRegistry();
  if (Reg.enabled()) {
    recordCommandMix(Reg, TL.Kernels);
    Reg.counter("engine.cross_device_handoffs").add(Handoffs);
    obs::LogLinearHistogram &H = Reg.histogram("engine.node_duration_ns");
    for (const NodeSchedule &S : TL.Nodes)
      H.record(S.EndNs - S.StartNs);
  }
  obs::flightEvent(obs::FlightEventKind::ExecDone, 0,
                   static_cast<int32_t>(TL.Nodes.size()), -1, TL.TotalNs);
  return TL;
}
