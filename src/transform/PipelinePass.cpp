//===- transform/PipelinePass.cpp - Pipelined execution pass ----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "transform/PipelinePass.h"

#include <algorithm>
#include <optional>

#include "ir/ShapeInference.h"
#include "support/Format.h"
#include "transform/SplitUtil.h"

using namespace pf;

namespace {

bool isUnaryElementwise(OpKind Kind) {
  switch (Kind) {
  case OpKind::Relu:
  case OpKind::Relu6:
  case OpKind::Sigmoid:
  case OpKind::SiLU:
  case OpKind::Tanh:
  case OpKind::Gelu:
  case OpKind::Identity:
    return true;
  default:
    return false;
  }
}

/// Largest number of output rows conv \p A can produce when only the first
/// \p InRows input rows are available.
int64_t producibleRows(const Conv2dAttrs &A, int64_t InRows, int64_t OutH) {
  // Output row o needs padded rows up to o*s + KH; the top padding supplies
  // PadTop virtual rows.
  const int64_t B = (InRows + A.PadTop - A.KernelH) / A.StrideH + 1;
  return std::clamp<int64_t>(B, 0, OutH);
}

/// Each chain node's stage boundaries (Bounds[I][J] is where node I's stage
/// J begins; its last entry is the node's height), or std::nullopt when
/// \p Spec's chain cannot be pipelined at its stage count.
std::optional<std::vector<std::vector<int64_t>>>
stageBounds(const Graph &G, const PipelineSpec &Spec) {
  if (Spec.NumStages < 2 || !isPipelineableChain(G, Spec.Chain))
    return std::nullopt;
  const size_t Len = Spec.Chain.size();
  const int64_t S = Spec.NumStages;

  // Node 0 is split evenly; each later node's stage j ends at the last
  // output row computable from its producer's stages 0..j.
  std::vector<std::vector<int64_t>> Bounds(Len);
  {
    const Node &First = G.node(Spec.Chain[0]);
    const int64_t H0 = G.value(First.Outputs[0]).Shape.dim(1);
    if (H0 < S)
      return std::nullopt;
    Bounds[0].assign(1, 0);
    for (auto [Begin, End] : splitRange(H0, S)) {
      (void)Begin;
      Bounds[0].push_back(End);
    }
  }
  for (size_t I = 1; I < Len; ++I) {
    const Node &N = G.node(Spec.Chain[I]);
    const int64_t OutH = G.value(N.Outputs[0]).Shape.dim(1);
    Bounds[I].assign(1, 0);
    for (int64_t J = 0; J < S; ++J) {
      int64_t End;
      if (J == S - 1) {
        End = OutH; // Final stage covers the remainder.
      } else if (N.Kind == OpKind::Conv2d) {
        End = producibleRows(N.conv(), Bounds[I - 1][J + 1], OutH);
      } else {
        End = std::min(Bounds[I - 1][J + 1], OutH);
      }
      if (End <= Bounds[I].back())
        return std::nullopt; // A stage would be empty: reject this chain.
      Bounds[I].push_back(End);
    }
  }
  return Bounds;
}

} // namespace

bool pf::isPipelineableChain(const Graph &G,
                             const std::vector<NodeId> &Chain) {
  if (Chain.size() < 2)
    return false;
  for (size_t I = 0; I < Chain.size(); ++I) {
    const Node &N = G.node(Chain[I]);
    if (N.Dead)
      return false;
    if (N.Kind != OpKind::Conv2d && !isUnaryElementwise(N.Kind))
      return false;
    if (G.value(N.Outputs[0]).Shape.rank() != 4 ||
        G.value(N.Outputs[0]).Shape.dim(0) != 1)
      return false;
    if (I > 0) {
      const Node &Prev = G.node(Chain[I - 1]);
      if (N.Inputs.empty() || N.Inputs[0] != Prev.Outputs[0])
        return false;
      // Intermediate values must have no other consumers (the transform
      // deletes their producers).
      if (G.consumers(Prev.Outputs[0]).size() != 1)
        return false;
    }
  }
  return true;
}

bool pf::canPipeline(const Graph &G, const PipelineSpec &Spec) {
  return stageBounds(G, Spec).has_value();
}

bool pf::applyPipeline(Graph &G, const PipelineSpec &Spec) {
  PF_ASSERT(Spec.NumStages >= 2, "pipelining needs at least two stages");
  const auto Bounds = stageBounds(G, Spec);
  if (!Bounds)
    return false;
  const size_t Len = Spec.Chain.size();
  const int64_t S = Spec.NumStages;

  // Rewrite the chain node by node.
  PiecewiseTensor Current(G, G.node(Spec.Chain[0]).Inputs[0]);
  ValueId FinalOut = G.node(Spec.Chain.back()).Outputs[0];
  const TensorShape FinalShape = G.value(FinalOut).Shape;

  for (size_t I = 0; I < Len; ++I) {
    const Node N = G.node(Spec.Chain[I]); // Copy: we remove it below.
    const Device StageDev =
        N.Kind == OpKind::Conv2d && isPimCandidate(N) ? Device::Pim
                                                      : Device::Gpu;
    std::vector<HPiece> Pieces;
    for (int64_t J = 0; J < S; ++J) {
      const int64_t Begin = (*Bounds)[I][J];
      const int64_t End = (*Bounds)[I][J + 1];
      const std::string Name =
          formatStr("%s.stage%lld", N.Name.c_str(), static_cast<long long>(J));
      ValueId Out = G.addValue(Name + ".out", TensorShape{});
      NodeId Part;
      if (N.Kind == OpKind::Conv2d) {
        const Conv2dAttrs &Orig = N.conv();
        const ConvInputReq Req =
            convInputRowsFor(Orig, Current.height(), Begin, End);
        // Boundary rows from earlier stages arrive through the gathered
        // range (Slice/Concat of prior pieces).
        ValueId In = Current.range(Req.InBegin, Req.InEnd, Device::Gpu);
        Conv2dAttrs Attrs = Orig;
        Attrs.PadTop = Req.PadTop;
        Attrs.PadBottom = Req.PadBottom;
        std::vector<ValueId> Inputs = {In, N.Inputs[1]};
        if (N.Inputs.size() > 2)
          Inputs.push_back(N.Inputs[2]);
        Part = G.addNode(OpKind::Conv2d, Name, Attrs, std::move(Inputs),
                         {Out});
      } else {
        ValueId In = Current.range(Begin, End, Device::Gpu);
        Part = G.addNode(N.Kind, Name, N.Attrs, {In}, {Out});
      }
      G.node(Part).Dev = StageDev;
      auto Err = inferNodeShapes(G, Part);
      PF_ASSERT(!Err, "pipeline stage shape inference failed");
      PF_ASSERT(G.value(Out).Shape.dim(1) == End - Begin,
                "pipeline stage produced unexpected row count");
      Pieces.push_back(HPiece{Begin, End, Out});
    }
    G.removeNode(N.Id);
    Current = PiecewiseTensor(G, std::move(Pieces));
  }

  // Reassemble the chain's output into the original value so downstream
  // consumers are untouched.
  ConcatAttrs A;
  A.Axis = 1;
  std::vector<ValueId> StageOuts;
  for (int64_t J = 0; J < S; ++J)
    StageOuts.push_back(
        Current.range((*Bounds)[Len - 1][J], (*Bounds)[Len - 1][J + 1]));
  const std::string Name =
      formatStr("%s.pipe.join", G.node(Spec.Chain.back()).Name.c_str());
  NodeId Concat = G.addNode(OpKind::Concat, Name, A, StageOuts, {FinalOut});
  G.node(Concat).Dev = Device::Gpu;
  auto Err = inferNodeShapes(G, Concat);
  PF_ASSERT(!Err, "pipeline join shape inference failed");
  PF_ASSERT(G.value(FinalOut).Shape == FinalShape,
            "pipelining changed the chain output shape");
  return true;
}
