//===- ir/Parallelism.cpp - Inter-node parallelism analysis -----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Parallelism.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

using namespace pf;

ParallelismStats pf::analyzeParallelism(const Graph &G) {
  const std::vector<NodeId> Order = G.topoOrder();
  const size_t N = Order.size();
  ParallelismStats Stats;
  Stats.NumNodes = static_cast<int>(N);
  if (N == 0)
    return Stats;

  std::unordered_map<NodeId, size_t> Index;
  for (size_t I = 0; I < N; ++I)
    Index[Order[I]] = I;

  // Row i of Reach = bitset of nodes reachable from i (descendants,
  // including i), stored flat: Words uint64_t per row.
  const size_t Words = (N + 63) / 64;
  std::vector<uint64_t> Reach(N * Words, 0);
  auto Row = [&](size_t I) { return Reach.data() + I * Words; };
  auto SetBit = [](uint64_t *Bits, size_t J) {
    Bits[J / 64] |= uint64_t(1) << (J % 64);
  };

  std::vector<int> Depth(N, 1);
  // Walk in reverse topological order so consumers' sets are final.
  for (size_t I = N; I-- > 0;) {
    SetBit(Row(I), I);
    const Node &Nd = G.node(Order[I]);
    for (ValueId Out : Nd.Outputs) {
      for (NodeId Consumer : G.consumers(Out)) {
        const size_t J = Index.at(Consumer);
        for (size_t W = 0; W < Words; ++W)
          Row(I)[W] |= Row(J)[W];
      }
    }
  }
  // Critical path via forward pass.
  for (size_t I = 0; I < N; ++I) {
    const Node &Nd = G.node(Order[I]);
    for (ValueId In : Nd.Inputs) {
      const NodeId Producer = G.producer(In);
      if (Producer == InvalidNode)
        continue;
      Depth[I] = std::max(Depth[I], Depth[Index.at(Producer)] + 1);
    }
    Stats.CriticalPathLength = std::max(Stats.CriticalPathLength, Depth[I]);
  }

  // Two nodes are independent iff neither reaches the other. For node i,
  // the nodes ordered with i are row i (descendants) plus all ancestors
  // (j such that i is in row j).
  std::vector<uint64_t> Ordered(Words);
  for (size_t I = 0; I < N; ++I) {
    std::copy(Row(I), Row(I) + Words, Ordered.begin());
    for (size_t J = 0; J < N; ++J)
      if ((Row(J)[I / 64] >> (I % 64)) & 1)
        SetBit(Ordered.data(), J);
    size_t OrderedCount = 0;
    for (uint64_t W : Ordered)
      OrderedCount += static_cast<size_t>(__builtin_popcountll(W));
    if (OrderedCount < N)
      ++Stats.NodesWithIndependentPeer;
  }
  return Stats;
}
