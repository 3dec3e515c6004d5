//===- ir/Metrics.cpp - Per-node cost metrics -------------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Metrics.h"

using namespace pf;

NodeMetrics pf::computeMetrics(const NodeView &N) {
  NodeMetrics M;

  int64_t InElems = 0;
  for (const Value *V : N.Inputs) {
    M.BytesIn += V->byteCount();
    InElems += V->Shape.numElements();
    if (V->IsParam)
      M.WeightBytes += V->byteCount();
  }
  int64_t OutElems = 0;
  for (const Value *V : N.Outputs) {
    M.BytesOut += V->byteCount();
    OutElems += V->Shape.numElements();
  }
  M.LdStElements = InElems + OutElems;

  switch (N.Kind) {
  case OpKind::Conv2d: {
    const Conv2dAttrs &A = N.conv();
    const TensorShape &X = N.input(0).Shape;
    const TensorShape &O = N.output().Shape;
    const int64_t CinPerGroup = X.dim(3) / A.Groups;
    M.Macs = O.numElements() * A.KernelH * A.KernelW * CinPerGroup;
    break;
  }
  case OpKind::Gemm: {
    const TensorShape &X = N.input(0).Shape;
    const TensorShape &W = N.input(1).Shape;
    M.Macs = X.dim(0) * X.dim(1) * W.dim(1);
    break;
  }
  case OpKind::MatMul: {
    const TensorShape &X = N.input(0).Shape;
    const TensorShape &O = N.output().Shape;
    M.Macs = X.dim(0) * X.dim(1) * O.dim(1);
    break;
  }
  case OpKind::LayerNorm:
    M.OtherOps = 6 * OutElems; // Mean, variance, normalize, affine.
    break;
  case OpKind::Add:
  case OpKind::Mul:
  case OpKind::Relu:
  case OpKind::Relu6:
  case OpKind::Identity:
    M.OtherOps = OutElems;
    break;
  case OpKind::Sigmoid:
  case OpKind::SiLU:
  case OpKind::Tanh:
  case OpKind::Gelu:
  case OpKind::Softmax:
    // Transcendental activations cost several ops per element.
    M.OtherOps = 8 * OutElems;
    break;
  case OpKind::BatchNorm:
    M.OtherOps = 4 * OutElems;
    break;
  case OpKind::MaxPool:
  case OpKind::AvgPool: {
    const PoolAttrs &A = std::get<PoolAttrs>(*N.Attrs);
    M.OtherOps = OutElems * A.KernelH * A.KernelW;
    break;
  }
  case OpKind::GlobalAvgPool: {
    const TensorShape &X = N.input(0).Shape;
    M.OtherOps = X.numElements();
    break;
  }
  case OpKind::Pad:
  case OpKind::Slice:
  case OpKind::Concat:
  case OpKind::Flatten:
  case OpKind::Input:
    // Pure data movement.
    break;
  }
  return M;
}

NodeMetrics pf::computeMetrics(const Graph &G, NodeId Id) {
  return computeMetrics(GraphNodeView(G, Id));
}

NodeMetrics pf::computeGraphMetrics(const Graph &G) {
  NodeMetrics Total;
  for (const Node &N : G.nodes()) {
    if (N.Dead)
      continue;
    NodeMetrics M = computeMetrics(G, N.Id);
    Total.Macs += M.Macs;
    Total.OtherOps += M.OtherOps;
    Total.BytesIn += M.BytesIn;
    Total.WeightBytes += M.WeightBytes;
    Total.BytesOut += M.BytesOut;
    Total.LdStElements += M.LdStElements;
  }
  return Total;
}
