//===- codegen/CommandGenerator.h - PIM command generation ------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The DRAM-PIM command generator and command-scheduling pass (Section
/// 4.3.1). For a lowered PimKernelSpec it emits per-channel command traces,
/// distributing work across channels at one of three granularities
/// (Fig. 6):
///
///  * G_ACT level  — whole weight-row groups are pinned to channels for the
///    entire kernel (weight-stationary; minimal command duplication, but a
///    small matrix leaves channels idle);
///  * READRES level — (row-group x vector-batch) units are distributed, so
///    small matrices with many vectors still fill all channels;
///  * COMP level   — units are additionally split along the reduction (K)
///    axis into partial sums, engaging all channels even for single-vector
///    kernels with few rows.
///
/// The scheduler enumerates the channel-partitioning candidates permitted by
/// the mechanism's maximum granularity, prices each with the cycle
/// simulator, and keeps the fastest — this is the paper's "command
/// scheduling pass to distribute PIM commands across channels to fully
/// utilize all PIM compute units". A candidate's lower bound comes from
/// the per-pass cost of its (M, K) split. The search prices the
/// least-bound candidate first and then only the candidates whose bound
/// can still beat the best price, so most are never emitted or simulated.
/// Its tables and streams are per-thread scratch reused across plans.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_CODEGEN_COMMANDGENERATOR_H
#define PIMFLOW_CODEGEN_COMMANDGENERATOR_H

#include <string>

#include "codegen/PimKernelSpec.h"
#include "pim/PimCommand.h"
#include "pim/PimConfig.h"
#include "pim/PimSimulator.h"

namespace pf {

/// Fig. 6 command-scheduling granularities, in increasing channel-level
/// parallelism.
enum class ScheduleGranularity : uint8_t {
  GAct,
  ReadRes,
  Comp,
};

/// Returns "g_act"/"readres"/"comp".
const char *granularityName(ScheduleGranularity G);

/// Code-generation options distinguishing the evaluated mechanisms.
struct CodegenOptions {
  /// Finest scheduling granularity the mechanism may use.
  ScheduleGranularity MaxGranularity = ScheduleGranularity::Comp;
  /// Strided-GWRITE extension: gather a conv window's KH segments with one
  /// command instead of KH commands.
  bool StridedGwrite = true;
};

/// A channel partitioning of one kernel: (M-partitions, vector-partitions,
/// K-partitions) and the Fig. 6 granularity it needs. It uses channels
/// 0..usedChannels()-1 of the group it is planned over.
struct ChannelMapping {
  int ChannelsForM = 1;
  int ChannelsForV = 1;
  int ChannelsForK = 1;
  ScheduleGranularity Granularity = ScheduleGranularity::GAct;

  int usedChannels() const {
    return ChannelsForM * ChannelsForV * ChannelsForK;
  }
  std::string describeMapping() const;
};

/// A generated PIM kernel: the traces, their simulated timing, and the
/// mapping the scheduler chose.
struct PimKernelPlan : ChannelMapping {
  DeviceTrace Trace{0};
  PimRunStats Stats;
  /// Simulated kernel latency in nanoseconds.
  double Ns = 0.0;
  /// Useful MACs (for the energy model).
  int64_t EffectiveMacs = 0;
};

/// What the engine keeps of one executed kernel's plan: the mapping, the
/// command totals, and the phase cycles of one used channel (every used
/// channel carries the same stream). No trace, so a timeline holds one per
/// kernel and exporters read it instead of planning again.
struct PimKernelRecord : ChannelMapping {
  NodeId Id = InvalidNode;
  int64_t GwriteBursts = 0;
  int64_t GActs = 0;
  int64_t CompColumns = 0;
  int64_t ReadResCmds = 0;
  ChannelPhaseCycles ChannelPhases;
};

/// The record of \p Plan executed as node \p Id.
PimKernelRecord recordOf(NodeId Id, const PimKernelPlan &Plan);

/// What one pass of a mapping's per-channel stream costs. Every used
/// channel repeats one pass, which depends on the mapping's M and K splits
/// only; the vector split sets how many passes it makes.
struct PassCost {
  /// Busy cycles of each phase of one pass (the fault-path, completion and
  /// channel fields stay 0).
  ChannelPhaseCycles Phases;
  /// GWRITE bursts one pass fetches.
  int64_t GwriteBursts = 0;
  /// GPU-side merge time of the mapping's partial sums, in ns (once per
  /// mapping, not per pass).
  double MergeNs = 0.0;
};

/// Generates and schedules PIM command traces for lowered kernels.
class PimCommandGenerator {
public:
  PimCommandGenerator(PimConfig Config, CodegenOptions Options)
      : Config(Config), Options(Options), Sim(Config) {}

  const PimConfig &config() const { return Config; }
  const CodegenOptions &options() const { return Options; }

  /// Emits traces for \p Spec under a fixed channel partitioning
  /// (ChannelsForM x ChannelsForV x ChannelsForK must not exceed the
  /// channel count).
  PimKernelPlan planWithMapping(const PimKernelSpec &Spec, int ChannelsForM,
                                int ChannelsForV, int ChannelsForK) const;

  /// Command-scheduling pass: returns the fastest plan of the mappings the
  /// configured granularity permits, the first fastest in enumeration
  /// order (lexicographic in Cm, Cv, Ck). The least-bound mapping is priced
  /// first; a mapping whose lower bound cannot beat the best so far (or
  /// tie it from an earlier place) is skipped.
  PimKernelPlan plan(const PimKernelSpec &Spec) const;

  /// plan() without the device trace: the same mapping, Ns, Stats and
  /// EffectiveMacs and the same telemetry, with an empty Trace. For
  /// callers that never read the trace.
  PimKernelPlan planUntraced(const PimKernelSpec &Spec) const;

  /// What pricing a mapping needs besides the command stream each of its
  /// used channels carries.
  struct MappingExtras {
    /// GWRITE bursts one used channel fetches.
    int64_t GwriteBursts = 0;
    /// GPU-side merge time of the mapping's partial sums, in ns.
    double MergeNs = 0.0;
  };

  /// Emits the command stream every used channel of \p Map carries into
  /// \p Channel (reusing its storage).
  MappingExtras emitChannel(const PimKernelSpec &Spec,
                            const ChannelMapping &Map,
                            ChannelTrace &Channel) const;

  /// The cost of one pass of the stream emitChannel() writes for a mapping
  /// with \p ChannelsForM M-partitions and \p ChannelsForK K-partitions,
  /// in closed form: what the search bounds candidates with.
  PassCost passCost(const PimKernelSpec &Spec, int ChannelsForM,
                    int ChannelsForK) const;

private:
  /// The search behind plan() and planUntraced(): the kept plan, with its
  /// device trace when \p Traced.
  PimKernelPlan search(const PimKernelSpec &Spec, bool Traced) const;

  /// Kernel ns of \p Map when each used channel finishes at
  /// \p ChannelCycles: the makespan raised to the fetch-supply floor, plus
  /// the merge. Monotone in \p ChannelCycles.
  double priceNs(const ChannelMapping &Map, const MappingExtras &X,
                 int64_t ChannelCycles) const;

  /// Full run stats of \p Map, whose used channels each carry \p Channel.
  /// The returned plan has no Trace.
  PimKernelPlan priceMapping(const PimKernelSpec &Spec,
                             const ChannelMapping &Map,
                             const ChannelTrace &Channel,
                             const MappingExtras &X) const;

  /// A device trace whose first \p UsedChannels channels hold \p Channel.
  DeviceTrace replicate(const ChannelTrace &Channel, int UsedChannels) const;

  PimConfig Config;
  CodegenOptions Options;
  PimSimulator Sim;
};

} // namespace pf

#endif // PIMFLOW_CODEGEN_COMMANDGENERATOR_H
