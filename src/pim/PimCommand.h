//===- pim/PimCommand.h - PIM command set and traces ------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The DRAM-PIM command set (GWRITE / GWRITE_2 / GWRITE_4 / G_ACT / COMP /
/// READRES) and the trace representation consumed by the cycle simulator.
///
/// Real layers issue millions of commands in perfectly periodic patterns
/// (one pattern per output-vector batch), so a trace is stored as a sequence
/// of CommandBlocks: a command pattern plus a repeat count. The simulator
/// computes the warm-up iteration exactly, measures the steady-state
/// iteration, and extrapolates — cycle-identical to unrolling for periodic
/// patterns while keeping traces compact.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_PIM_PIMCOMMAND_H
#define PIMFLOW_PIM_PIMCOMMAND_H

#include <cstdint>
#include <string>
#include <vector>

#include "support/Assert.h"

namespace pf {

/// DRAM-PIM command opcodes.
enum class PimCmdKind : uint8_t {
  Gwrite,   ///< Push input data into one global buffer.
  Gwrite2,  ///< Extended: fill two global buffers with one command.
  Gwrite4,  ///< Extended: fill four global buffers with one command.
  GAct,     ///< Activate the target row in all banks.
  Comp,     ///< One column I/O through every bank's MAC tree.
  ReadRes,  ///< Drain the per-bank result latches.
};

/// Returns the mnemonic for \p Kind.
const char *pimCmdName(PimCmdKind Kind);

/// One PIM command as scheduled to a channel.
struct PimCommand {
  PimCmdKind Kind = PimCmdKind::Comp;
  /// GWRITE*: number of 32B bursts carried (per buffer). COMP: number of
  /// back-to-back column computes this command stands for. READRES / G_ACT:
  /// number of consecutive repetitions.
  int64_t Count = 1;

  static PimCommand gwrite(int64_t Bursts, int Buffers) {
    PF_ASSERT(Buffers == 1 || Buffers == 2 || Buffers == 4,
              "GWRITE supports 1/2/4 buffers");
    PimCommand C;
    C.Kind = Buffers == 1   ? PimCmdKind::Gwrite
             : Buffers == 2 ? PimCmdKind::Gwrite2
                            : PimCmdKind::Gwrite4;
    C.Count = Bursts;
    return C;
  }
  static PimCommand gact(int64_t Repeats = 1) {
    return PimCommand{PimCmdKind::GAct, Repeats};
  }
  static PimCommand comp(int64_t Columns) {
    return PimCommand{PimCmdKind::Comp, Columns};
  }
  static PimCommand readRes(int64_t Repeats = 1) {
    return PimCommand{PimCmdKind::ReadRes, Repeats};
  }

  bool operator==(const PimCommand &) const = default;
};

/// A periodic block of commands: `Pattern` repeated `Repeats` times.
struct CommandBlock {
  std::vector<PimCommand> Pattern;
  int64_t Repeats = 1;

  bool operator==(const CommandBlock &) const = default;
};

/// The command stream of one PIM channel.
struct ChannelTrace {
  std::vector<CommandBlock> Blocks;

  /// Total number of commands represented (after expansion).
  int64_t numCommands() const {
    int64_t N = 0;
    for (const CommandBlock &B : Blocks)
      N += B.Repeats * static_cast<int64_t>(B.Pattern.size());
    return N;
  }

  bool empty() const { return Blocks.empty(); }
};

/// The command streams of every channel of the device for one PIM kernel.
struct DeviceTrace {
  std::vector<ChannelTrace> Channels;

  explicit DeviceTrace(int NumChannels = 0) : Channels(NumChannels) {}

  /// Channels with at least one command.
  int numActiveChannels() const {
    int N = 0;
    for (const ChannelTrace &C : Channels)
      N += C.empty() ? 0 : 1;
    return N;
  }
};

} // namespace pf

#endif // PIMFLOW_PIM_PIMCOMMAND_H
