//===- transform/PatternMatch.cpp - Pipelining pattern matcher --*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "transform/PatternMatch.h"

#include "transform/PipelinePass.h"

using namespace pf;

const char *pf::pipelinePatternName(PipelinePattern P) {
  switch (P) {
  case PipelinePattern::PwDw:
    return "1x1-dw";
  case PipelinePattern::DwPw:
    return "dw-1x1";
  case PipelinePattern::PwDwPw:
    return "1x1-dw-1x1";
  }
  pf_unreachable("unknown pipeline pattern");
}

std::vector<NodeId> PipelineCandidate::convNodes(const Graph &G) const {
  std::vector<NodeId> Out;
  for (NodeId Id : Chain)
    if (G.node(Id).Kind == OpKind::Conv2d)
      Out.push_back(Id);
  return Out;
}

namespace {

bool isUnaryAct(OpKind Kind) {
  switch (Kind) {
  case OpKind::Relu:
  case OpKind::Relu6:
  case OpKind::Sigmoid:
  case OpKind::SiLU:
  case OpKind::Tanh:
  case OpKind::Gelu:
    return true;
  default:
    return false;
  }
}

bool isPointwiseConv(const Node &N) {
  return N.Kind == OpKind::Conv2d && N.conv().isPointwise();
}

/// Follows the single consumer of \p V, or returns InvalidNode when the
/// value fans out or dead-ends.
NodeId soleConsumer(const Graph &G, ValueId V) {
  const std::vector<NodeId> &Users = G.consumers(V);
  return Users.size() == 1 ? Users.front() : InvalidNode;
}

/// Starting from conv node \p Anchor, tries to extend the chain through an
/// optional activation to the next conv. Returns the next conv's id (and
/// appends traversed nodes to \p Chain) or InvalidNode.
NodeId nextConv(const Graph &G, NodeId Anchor, std::vector<NodeId> &Chain) {
  NodeId Cur = soleConsumer(G, G.node(Anchor).Outputs[0]);
  if (Cur == InvalidNode)
    return InvalidNode;
  if (isUnaryAct(G.node(Cur).Kind)) {
    const NodeId Act = Cur;
    Cur = soleConsumer(G, G.node(Act).Outputs[0]);
    if (Cur == InvalidNode || G.node(Cur).Kind != OpKind::Conv2d)
      return InvalidNode;
    Chain.push_back(Act);
    Chain.push_back(Cur);
    return Cur;
  }
  if (G.node(Cur).Kind != OpKind::Conv2d)
    return InvalidNode;
  Chain.push_back(Cur);
  return Cur;
}

} // namespace

std::vector<PipelineCandidate> pf::findPipelineCandidates(const Graph &G) {
  std::vector<PipelineCandidate> Out;
  for (NodeId Anchor : G.topoOrder()) {
    const Node &N = G.node(Anchor);
    if (N.Kind != OpKind::Conv2d)
      continue;
    const bool AnchorPw = isPointwiseConv(N);
    const bool AnchorDw = isDepthwiseConv(N);
    if (!AnchorPw && !AnchorDw)
      continue;

    std::vector<NodeId> Chain = {Anchor};
    const NodeId Second = nextConv(G, Anchor, Chain);
    if (Second == InvalidNode)
      continue;

    if (AnchorPw && isDepthwiseConv(G.node(Second))) {
      // Try to extend to Type 3 (1x1-DW-1x1) first.
      std::vector<NodeId> Chain3 = Chain;
      const NodeId Third = nextConv(G, Second, Chain3);
      if (Third != InvalidNode && isPointwiseConv(G.node(Third)) &&
          isPipelineableChain(G, Chain3))
        Out.push_back(PipelineCandidate{Chain3, PipelinePattern::PwDwPw});
      if (isPipelineableChain(G, Chain))
        Out.push_back(PipelineCandidate{Chain, PipelinePattern::PwDw});
      continue;
    }
    if (AnchorDw && isPointwiseConv(G.node(Second)) &&
        isPipelineableChain(G, Chain))
      Out.push_back(PipelineCandidate{Chain, PipelinePattern::DwPw});
  }
  return Out;
}
