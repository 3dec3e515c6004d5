//===- codegen/WeightPlacement.cpp - Filter placement in DRAM ---*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/WeightPlacement.h"

using namespace pf;

int64_t pf::dramRowsPerBank(const PimKernelSpec &Spec, int ChannelsForM,
                            const PimConfig &Config) {
  // Each channel of an M-partition holds ceil(M/Cm) matrix rows,
  // interleaved over the banks and packed densely: per bank,
  // ceil(rows/banks) dot-product segments of K fp16 elements each.
  const int64_t RowsPerPart = (Spec.M + ChannelsForM - 1) / ChannelsForM;
  const int64_t RowsPerBank =
      (RowsPerPart + Config.BanksPerChannel - 1) / Config.BanksPerChannel;
  const int64_t Elements = RowsPerBank * Spec.K;
  return (Elements + Config.elementsPerRow() - 1) /
         Config.elementsPerRow();
}

PlacementPlan pf::placeWeights(const Graph &G,
                               const std::vector<PimKernelRecord> &Kernels,
                               const PimConfig &Config,
                               int64_t RowsPerBankCapacity) {
  PlacementPlan Plan;
  Plan.RowsPerBankCapacity = RowsPerBankCapacity;

  for (const PimKernelRecord &K : Kernels) {
    const PimKernelSpec Spec = lowerToPimSpec(G, K.Id);
    PlacementEntry E;
    E.Node = K.Id;
    E.DramRowsPerBank = dramRowsPerBank(Spec, K.ChannelsForM, Config);
    // Vector- and K-partitions run against the same M-shard, so each of
    // the Cv * Ck channel groups needs its own copy.
    E.Replicas = K.ChannelsForV * K.ChannelsForK;
    E.WeightBytes = Spec.weightBytes();
    Plan.TotalWeightBytes += E.WeightBytes;
    Plan.PhysicalWeightBytes += E.WeightBytes * E.Replicas;
    // Kernels stack in every channel: the per-bank load adds up (the
    // M-shards of one kernel spread across Cm channels at the same row
    // offsets, so the per-bank usage is uniform across channels).
    Plan.RowsPerBankUsed += E.DramRowsPerBank;
    Plan.Entries.push_back(E);
  }
  return Plan;
}
