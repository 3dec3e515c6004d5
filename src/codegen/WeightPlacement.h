//===- codegen/WeightPlacement.h - Filter placement in DRAM -----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compile-time placement of filter matrices into the PIM channels' memory
/// cell arrays (Section 2.2: "we place the filters in the memory cell
/// array in advance"). For every offloaded kernel, the planner derives how
/// many DRAM rows each bank must dedicate under the kernel's chosen
/// channel mapping — including the replication that vector- and K-split
/// mappings imply — and checks the total against the per-bank row
/// capacity.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_CODEGEN_WEIGHTPLACEMENT_H
#define PIMFLOW_CODEGEN_WEIGHTPLACEMENT_H

#include <vector>

#include "codegen/CommandGenerator.h"

namespace pf {

/// Placement of one PIM kernel's weights.
struct PlacementEntry {
  NodeId Node = InvalidNode;
  /// DRAM rows per bank this kernel occupies in each channel that holds a
  /// copy of (its share of) the matrix.
  int64_t DramRowsPerBank = 0;
  /// Channels holding a copy (Cv * Ck partitions replicate the M-shard).
  int Replicas = 1;
  /// Logical weight bytes (unreplicated).
  int64_t WeightBytes = 0;
};

/// The whole device's placement.
struct PlacementPlan {
  std::vector<PlacementEntry> Entries;
  /// Worst-case DRAM rows consumed per bank (kernels stack within each
  /// channel; the per-channel loads are equal by construction).
  int64_t RowsPerBankUsed = 0;
  /// Row capacity per bank the plan was checked against.
  int64_t RowsPerBankCapacity = 0;
  /// Total logical weight bytes placed (unreplicated).
  int64_t TotalWeightBytes = 0;
  /// Physical bytes including replication.
  int64_t PhysicalWeightBytes = 0;

  bool fits() const { return RowsPerBankUsed <= RowsPerBankCapacity; }
  double utilization() const {
    return RowsPerBankCapacity == 0
               ? 0.0
               : static_cast<double>(RowsPerBankUsed) /
                     static_cast<double>(RowsPerBankCapacity);
  }
};

/// DRAM rows per bank that one kernel occupies in each channel of its
/// M-partition when its rows split \p ChannelsForM ways.
int64_t dramRowsPerBank(const PimKernelSpec &Spec, int ChannelsForM,
                        const PimConfig &Config);

/// Places the weights of every kernel in \p Kernels (a timeline's kernel
/// records of \p G) under the mapping each record holds.
/// \p RowsPerBankCapacity defaults to a 1 GB/channel GDDR6 die with 16
/// banks of 1 KB rows (65536 rows per bank).
PlacementPlan placeWeights(const Graph &G,
                           const std::vector<PimKernelRecord> &Kernels,
                           const PimConfig &Config,
                           int64_t RowsPerBankCapacity = 65536);

} // namespace pf

#endif // PIMFLOW_CODEGEN_WEIGHTPLACEMENT_H
