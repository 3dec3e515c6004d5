//===- ir/ShapeInference.cpp - Shape propagation ----------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/ShapeInference.h"

#include <utility>

#include "support/Format.h"

using namespace pf;

namespace {

std::optional<std::string> fail(const Node &N, const std::string &Why) {
  return formatStr("shape inference failed at node '%s' (%s): %s",
                   N.Name.c_str(), opKindName(N.Kind), Why.c_str());
}

} // namespace

std::optional<std::string> pf::inferNodeShapes(const Graph &G, NodeId Id,
                                               TensorShape &Out) {
  const Node &N = G.node(Id);
  PF_ASSERT(!N.Outputs.empty(), "node has no output");
  auto In = [&](size_t I) -> const TensorShape & {
    PF_ASSERT(I < N.Inputs.size(), "node input index out of range");
    return G.value(N.Inputs[I]).Shape;
  };
  auto SetOut = [&Out](TensorShape Shape) { Out = std::move(Shape); };

  switch (N.Kind) {
  case OpKind::Input:
    SetOut(G.value(N.Outputs[0]).Shape); // Shape fixed at construction.
    return std::nullopt;

  case OpKind::Conv2d: {
    if (N.Inputs.size() < 2)
      return fail(N, "expects input and weight");
    const Conv2dAttrs &A = N.conv();
    const TensorShape &X = In(0);
    const TensorShape &W = In(1);
    if (X.rank() != 4 || W.rank() != 4)
      return fail(N, "conv expects rank-4 input and weight");
    const int64_t Cin = X.dim(3);
    const int64_t Cout = W.dim(3);
    if (W.dim(0) != A.KernelH || W.dim(1) != A.KernelW)
      return fail(N, "weight kernel extent mismatch");
    if (W.dim(2) * A.Groups != Cin)
      return fail(N, formatStr("group/channel mismatch: W.Cin=%lld G=%lld "
                               "X.C=%lld",
                               static_cast<long long>(W.dim(2)),
                               static_cast<long long>(A.Groups),
                               static_cast<long long>(Cin)));
    if (Cout % A.Groups != 0)
      return fail(N, "Cout not divisible by groups");
    const int64_t Ho = convOutExtent(X.dim(1), A.KernelH, A.StrideH,
                                     A.PadTop, A.PadBottom);
    const int64_t Wo = convOutExtent(X.dim(2), A.KernelW, A.StrideW,
                                     A.PadLeft, A.PadRight);
    if (Ho <= 0 || Wo <= 0)
      return fail(N, "non-positive output spatial extent");
    SetOut(TensorShape{X.dim(0), Ho, Wo, Cout});
    return std::nullopt;
  }

  case OpKind::Gemm: {
    if (N.Inputs.size() < 2)
      return fail(N, "expects input and weight");
    const TensorShape &X = In(0);
    const TensorShape &W = In(1);
    if (X.rank() != 2 || W.rank() != 2)
      return fail(N, "gemm expects rank-2 operands");
    if (X.dim(1) != W.dim(0))
      return fail(N, "inner dimension mismatch");
    SetOut(TensorShape{X.dim(0), W.dim(1)});
    return std::nullopt;
  }

  case OpKind::Relu:
  case OpKind::Relu6:
  case OpKind::Sigmoid:
  case OpKind::SiLU:
  case OpKind::Tanh:
  case OpKind::Gelu:
  case OpKind::Softmax:
  case OpKind::Identity:
    SetOut(In(0));
    return std::nullopt;

  case OpKind::Add:
  case OpKind::Mul: {
    const TensorShape &A = In(0);
    const TensorShape &B = In(1);
    // Same shape, or B broadcast over all but the last (channel) axis.
    if (A == B) {
      SetOut(A);
      return std::nullopt;
    }
    if (B.numElements() == A.dim(A.rank() - 1)) {
      SetOut(A);
      return std::nullopt;
    }
    return fail(N, formatStr("incompatible shapes %s vs %s",
                             A.toString().c_str(), B.toString().c_str()));
  }

  case OpKind::BatchNorm: {
    const TensorShape &X = In(0);
    if (X.rank() != 4)
      return fail(N, "batchnorm expects rank-4 input");
    SetOut(X);
    return std::nullopt;
  }

  case OpKind::MaxPool:
  case OpKind::AvgPool: {
    const PoolAttrs &A = std::get<PoolAttrs>(N.Attrs);
    const TensorShape &X = In(0);
    if (X.rank() != 4)
      return fail(N, "pool expects rank-4 input");
    const int64_t Ho = convOutExtent(X.dim(1), A.KernelH, A.StrideH,
                                     A.PadTop, A.PadBottom);
    const int64_t Wo = convOutExtent(X.dim(2), A.KernelW, A.StrideW,
                                     A.PadLeft, A.PadRight);
    if (Ho <= 0 || Wo <= 0)
      return fail(N, "non-positive pooled extent");
    SetOut(TensorShape{X.dim(0), Ho, Wo, X.dim(3)});
    return std::nullopt;
  }

  case OpKind::GlobalAvgPool: {
    const TensorShape &X = In(0);
    if (X.rank() != 4)
      return fail(N, "globalavgpool expects rank-4 input");
    SetOut(TensorShape{X.dim(0), 1, 1, X.dim(3)});
    return std::nullopt;
  }

  case OpKind::Pad: {
    const PadAttrs &A = std::get<PadAttrs>(N.Attrs);
    const TensorShape &X = In(0);
    if (X.rank() != 4)
      return fail(N, "pad expects rank-4 input");
    SetOut(TensorShape{X.dim(0), X.dim(1) + A.Top + A.Bottom,
                          X.dim(2) + A.Left + A.Right, X.dim(3)});
    return std::nullopt;
  }

  case OpKind::Slice: {
    const SliceAttrs &A = std::get<SliceAttrs>(N.Attrs);
    TensorShape X = In(0);
    if (A.Axis < 0 || A.Axis >= X.rank())
      return fail(N, "slice axis out of range");
    if (A.Begin < 0 || A.End > X.dim(A.Axis) || A.Begin >= A.End)
      return fail(N, formatStr("slice range [%lld,%lld) invalid for dim %lld",
                               static_cast<long long>(A.Begin),
                               static_cast<long long>(A.End),
                               static_cast<long long>(X.dim(A.Axis))));
    X.setDim(A.Axis, A.End - A.Begin);
    SetOut(X);
    return std::nullopt;
  }

  case OpKind::Concat: {
    const ConcatAttrs &A = std::get<ConcatAttrs>(N.Attrs);
    if (N.Inputs.empty())
      return fail(N, "concat expects at least one input");
    TensorShape Joined = In(0);
    if (A.Axis < 0 || A.Axis >= Joined.rank())
      return fail(N, "concat axis out of range");
    int64_t Total = Joined.dim(A.Axis);
    for (size_t I = 1; I < N.Inputs.size(); ++I) {
      const TensorShape &X = In(I);
      if (X.rank() != Joined.rank())
        return fail(N, "concat rank mismatch");
      for (int64_t D = 0; D < Joined.rank(); ++D)
        if (D != A.Axis && X.dim(D) != Joined.dim(D))
          return fail(N, "concat non-axis extent mismatch");
      Total += X.dim(A.Axis);
    }
    Joined.setDim(A.Axis, Total);
    SetOut(Joined);
    return std::nullopt;
  }

  case OpKind::Flatten: {
    const TensorShape &X = In(0);
    SetOut(TensorShape{X.dim(0), X.numElements() / X.dim(0)});
    return std::nullopt;
  }

  case OpKind::LayerNorm: {
    const TensorShape &X = In(0);
    if (X.rank() < 1)
      return fail(N, "layernorm expects at least rank 1");
    const TensorShape &Scale = In(1);
    if (Scale.numElements() != X.dim(X.rank() - 1))
      return fail(N, "layernorm scale must match the last axis");
    SetOut(X);
    return std::nullopt;
  }

  case OpKind::MatMul: {
    const MatMulAttrs &A = std::get<MatMulAttrs>(N.Attrs);
    const TensorShape &X = In(0);
    const TensorShape &Y = In(1);
    if (X.rank() != 2 || Y.rank() != 2)
      return fail(N, "matmul expects rank-2 operands");
    const int64_t KY = A.TransposeB ? Y.dim(1) : Y.dim(0);
    const int64_t M = A.TransposeB ? Y.dim(0) : Y.dim(1);
    if (X.dim(1) != KY)
      return fail(N, "matmul inner dimension mismatch");
    SetOut(TensorShape{X.dim(0), M});
    return std::nullopt;
  }
  }
  pf_unreachable("unknown op kind in shape inference");
}

std::optional<std::string> pf::inferNodeShapes(Graph &G, NodeId Id) {
  TensorShape Out;
  if (auto Err = inferNodeShapes(std::as_const(G), Id, Out))
    return Err;
  G.value(G.node(Id).Outputs[0]).Shape = std::move(Out);
  return std::nullopt;
}

std::optional<std::string> pf::inferShapes(Graph &G) {
  for (NodeId Id : G.topoOrder())
    if (auto Err = inferNodeShapes(G, Id))
      return Err;
  return std::nullopt;
}
