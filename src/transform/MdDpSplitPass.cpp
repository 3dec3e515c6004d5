//===- transform/MdDpSplitPass.cpp - Multi-device data-parallel -*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "transform/MdDpSplitPass.h"

#include <cmath>

#include "ir/ShapeInference.h"
#include "support/Format.h"
#include "transform/SplitUtil.h"

using namespace pf;

namespace {

/// Emits a sub-convolution of \p Orig computing output rows [A, B) on
/// \p Dev, reading rows from \p Input (already sliced to Req's range).
ValueId emitConvPart(Graph &G, const Node &Orig, ValueId Input,
                     const ConvInputReq &Req, Device Dev, const char *Tag) {
  Conv2dAttrs Attrs = Orig.conv();
  Attrs.PadTop = Req.PadTop;
  Attrs.PadBottom = Req.PadBottom;
  std::vector<ValueId> Inputs = {Input, Orig.Inputs[1]};
  if (Orig.Inputs.size() > 2)
    Inputs.push_back(Orig.Inputs[2]); // Bias: shared by both parts.

  const std::string Name = formatStr("%s.%s", Orig.Name.c_str(), Tag);
  ValueId Out = G.addValue(Name + ".out", TensorShape{});
  NodeId N = G.addNode(OpKind::Conv2d, Name, Attrs, std::move(Inputs), {Out});
  G.node(N).Dev = Dev;
  auto Err = inferNodeShapes(G, N);
  PF_ASSERT(!Err, "conv part shape inference failed");
  return Out;
}

/// Emits `Slice(In, Axis, [Begin, End))` annotated with \p Dev.
ValueId emitSlice(Graph &G, ValueId In, int64_t Axis, int64_t Begin,
                  int64_t End, Device Dev, const char *Tag) {
  SliceAttrs A;
  A.Axis = Axis;
  A.Begin = Begin;
  A.End = End;
  const std::string Name =
      formatStr("%s.%s", G.value(In).Name.c_str(), Tag);
  ValueId Out = G.addValue(Name + ".out", TensorShape{});
  NodeId N = G.addNode(OpKind::Slice, Name, A, {In}, {Out});
  G.node(N).Dev = Dev;
  auto Err = inferNodeShapes(G, N);
  PF_ASSERT(!Err, "slice shape inference failed");
  return Out;
}

MdDpResult finishSplit(Graph &G, const Node &Orig, ValueId GpuOut,
                       ValueId PimOut, int64_t ConcatAxis) {
  const ValueId OrigOut = Orig.Outputs[0];
  const TensorShape OrigShape = G.value(OrigOut).Shape;
  G.removeNode(Orig.Id);

  ConcatAttrs A;
  A.Axis = ConcatAxis;
  const std::string Name = formatStr("%s.join", Orig.Name.c_str());
  NodeId Concat =
      G.addNode(OpKind::Concat, Name, A, {GpuOut, PimOut}, {OrigOut});
  G.node(Concat).Dev = Device::Gpu;
  auto Err = inferNodeShapes(G, Concat);
  PF_ASSERT(!Err, "join concat shape inference failed");
  PF_ASSERT(G.value(OrigOut).Shape == OrigShape,
            "MD-DP split changed the output shape");

  MdDpResult R;
  R.GpuPart = G.producer(GpuOut);
  R.PimPart = G.producer(PimOut);
  R.ConcatNode = Concat;
  return R;
}

MdDpResult splitConv(Graph &G, NodeId Id, const MdDpCut &Cut) {
  // Copy: node/value references would dangle across the insertions below.
  const Node N = G.node(Id);
  PiecewiseTensor Input(G, N.Inputs[0]);
  // Note: the two input slices overlap by KernelH - StrideH rows; with the
  // memory optimizer both are zero-copy views.
  const ConvInputReq &ReqGpu = Cut.GpuRows, &ReqPim = Cut.PimRows;
  ValueId GpuIn = Input.range(ReqGpu.InBegin, ReqGpu.InEnd, Device::Gpu);
  ValueId PimIn = Input.range(ReqPim.InBegin, ReqPim.InEnd, Device::Gpu);
  ValueId GpuOut = emitConvPart(G, N, GpuIn, ReqGpu, Device::Gpu, "gpu");
  ValueId PimOut = emitConvPart(G, N, PimIn, ReqPim, Device::Pim, "pim");
  return finishSplit(G, N, GpuOut, PimOut, /*ConcatAxis=*/1);
}

/// Emits a sub-Gemm on \p Dev over the given operand views.
ValueId emitGemmPart(Graph &G, const Node &Orig, ValueId X, ValueId W,
                     std::optional<ValueId> Bias, Device Dev,
                     const char *Tag) {
  GemmAttrs A = Orig.gemm();
  std::vector<ValueId> Inputs = {X, W};
  if (Bias)
    Inputs.push_back(*Bias);
  A.HasBias = Bias.has_value();
  const std::string Name = formatStr("%s.%s", Orig.Name.c_str(), Tag);
  ValueId Out = G.addValue(Name + ".out", TensorShape{});
  NodeId N = G.addNode(OpKind::Gemm, Name, A, std::move(Inputs), {Out});
  G.node(N).Dev = Dev;
  auto Err = inferNodeShapes(G, N);
  PF_ASSERT(!Err, "gemm part shape inference failed");
  return Out;
}

MdDpResult splitGemm(Graph &G, NodeId Id, const MdDpCut &Cut) {
  const Node N = G.node(Id);
  const int64_t M = Cut.Extent, MGpu = Cut.Cut;
  const bool HasBias = N.Inputs.size() > 2;
  ValueId WGpu = emitSlice(G, N.Inputs[1], /*Axis=*/1, 0, MGpu, Device::Gpu,
                           "w.gpu");
  ValueId WPim = emitSlice(G, N.Inputs[1], /*Axis=*/1, MGpu, M, Device::Gpu,
                           "w.pim");
  std::optional<ValueId> BiasGpu, BiasPim;
  if (HasBias) {
    BiasGpu = emitSlice(G, N.Inputs[2], /*Axis=*/0, 0, MGpu, Device::Gpu,
                        "b.gpu");
    BiasPim = emitSlice(G, N.Inputs[2], /*Axis=*/0, MGpu, M, Device::Gpu,
                        "b.pim");
  }
  ValueId GpuOut =
      emitGemmPart(G, N, N.Inputs[0], WGpu, BiasGpu, Device::Gpu, "gpu");
  ValueId PimOut =
      emitGemmPart(G, N, N.Inputs[0], WPim, BiasPim, Device::Pim, "pim");
  return finishSplit(G, N, GpuOut, PimOut, /*ConcatAxis=*/1);
}

} // namespace

MdDpCut pf::mdDpCut(const Graph &G, NodeId Id, double RatioGpu) {
  const Node &N = G.node(Id);
  MdDpCut C;
  // Convolutions split along the output-height axis. FC layers split along
  // the output-feature axis, slicing the (compile-time prepared) weight
  // matrix and bias: memory-bound FC time is dominated by weight traffic,
  // so unlike a batch-row split this shrinks each device's share of the
  // weight stream.
  C.Extent = N.Kind == OpKind::Conv2d ? G.value(N.Outputs[0]).Shape.dim(1)
                                      : G.value(N.Inputs[1]).Shape.dim(1);
  C.Cut = llround(RatioGpu * static_cast<double>(C.Extent));
  if (N.Kind == OpKind::Conv2d && !C.allPim() && !C.allGpu()) {
    const int64_t InH = G.value(N.Inputs[0]).Shape.dim(1);
    C.GpuRows = convInputRowsFor(N.conv(), InH, 0, C.Cut);
    C.PimRows = convInputRowsFor(N.conv(), InH, C.Cut, C.Extent);
  }
  return C;
}

std::optional<MdDpResult> pf::applyMdDpSplit(Graph &G, NodeId Id,
                                             double RatioGpu) {
  const Node &N = G.node(Id);
  PF_ASSERT(!N.Dead, "splitting a dead node");
  PF_ASSERT(isPimCandidate(N), "MD-DP split target must be a PIM candidate");
  PF_ASSERT(RatioGpu >= 0.0 && RatioGpu <= 1.0, "ratio out of range");
  const MdDpCut Cut = mdDpCut(G, Id, RatioGpu);
  if (Cut.allPim()) {
    G.node(Id).Dev = Device::Pim;
    return std::nullopt;
  }
  if (Cut.allGpu()) {
    G.node(Id).Dev = Device::Gpu;
    return std::nullopt;
  }
  if (N.Kind == OpKind::Conv2d)
    return splitConv(G, Id, Cut);
  return splitGemm(G, Id, Cut);
}
