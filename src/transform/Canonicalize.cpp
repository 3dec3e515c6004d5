//===- transform/Canonicalize.cpp - Graph cleanup passes --------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "transform/Canonicalize.h"

using namespace pf;

namespace {

/// True if any of \p N's outputs is a graph output.
bool producesGraphOutput(const Graph &G, const Node &N) {
  for (ValueId Out : N.Outputs)
    for (ValueId GOut : G.graphOutputs())
      if (Out == GOut)
        return true;
  return false;
}

} // namespace

int pf::eliminateDeadNodes(Graph &G) {
  int Removed = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    // Consumers mostly follow their producers, so sweeping from the last
    // node frees most dead chains in one round.
    for (size_t I = G.numNodesIncludingDead(); I-- > 0;) {
      const Node &N = G.node(static_cast<NodeId>(I));
      if (N.Dead || producesGraphOutput(G, N))
        continue;
      bool Used = false;
      for (ValueId Out : N.Outputs)
        Used |= !G.consumers(Out).empty();
      if (!Used) {
        G.removeNode(N.Id);
        ++Removed;
        Changed = true;
      }
    }
  }
  return Removed;
}

int pf::foldIdentities(Graph &G) {
  int Folded = 0;
  for (NodeId Id : G.topoOrder()) {
    const Node &N = G.node(Id);
    if (N.Kind != OpKind::Identity || producesGraphOutput(G, N))
      continue;
    G.replaceUses(N.Outputs[0], N.Inputs[0]);
    G.removeNode(Id);
    ++Folded;
  }
  return Folded;
}

int pf::cancelSliceOfConcat(Graph &G) {
  int Cancelled = 0;
  for (NodeId Id : G.topoOrder()) {
    const Node &N = G.node(Id);
    if (N.Kind != OpKind::Slice || producesGraphOutput(G, N))
      continue;
    const NodeId ProducerId = G.producer(N.Inputs[0]);
    if (ProducerId == InvalidNode)
      continue;
    const Node &Producer = G.node(ProducerId);
    if (Producer.Kind != OpKind::Concat)
      continue;
    const SliceAttrs &SA = std::get<SliceAttrs>(N.Attrs);
    const ConcatAttrs &CA = std::get<ConcatAttrs>(Producer.Attrs);
    if (SA.Axis != CA.Axis)
      continue;
    // Find a concat operand whose extent matches the slice range exactly.
    int64_t Offset = 0;
    ValueId Match = InvalidValue;
    for (ValueId OpId : Producer.Inputs) {
      const int64_t Extent = G.value(OpId).Shape.dim(CA.Axis);
      if (Offset == SA.Begin && Offset + Extent == SA.End) {
        Match = OpId;
        break;
      }
      Offset += Extent;
    }
    if (Match == InvalidValue)
      continue;
    G.replaceUses(N.Outputs[0], Match);
    G.removeNode(Id);
    ++Cancelled;
  }
  return Cancelled;
}

CanonicalizeStats pf::canonicalize(Graph &G) {
  CanonicalizeStats Stats;
  bool Changed = true;
  while (Changed) {
    const int Folded = foldIdentities(G);
    const int Cancelled = cancelSliceOfConcat(G);
    const int Removed = eliminateDeadNodes(G);
    Stats.IdentitiesFolded += Folded;
    Stats.SlicesCancelled += Cancelled;
    Stats.DeadNodesRemoved += Removed;
    Changed = Folded + Cancelled + Removed > 0;
  }
  return Stats;
}
