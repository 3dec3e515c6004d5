//===- codegen/MemoryOptimizer.cpp - Layout optimization --------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/MemoryOptimizer.h"

using namespace pf;

DataMovementCost MemoryOptimizer::classify(const NodeView &N) const {
  switch (N.Kind) {
  case OpKind::Flatten:
  case OpKind::Identity:
    // Always metadata-only in a contiguous layout.
    return DataMovementCost::Free;

  case OpKind::Slice: {
    if (!Enabled)
      return DataMovementCost::Copy;
    // Weight/bias slices (from MD-DP output-feature splits) are prepared at
    // compile time when parameters are placed, never copied at runtime.
    if (N.input(0).IsParam)
      return DataMovementCost::Free;
    const SliceAttrs &A = std::get<SliceAttrs>(*N.Attrs);
    const TensorShape &X = N.input(0).Shape;
    // NHWC batch-1: an H-axis (axis 1) slice of a contiguous tensor is a
    // contiguous sub-range; so is a leading-axis slice of a rank-2 tensor.
    // Other axes interleave and need a gather.
    if (X.rank() == 4 && X.dim(0) == 1 && A.Axis == 1)
      return DataMovementCost::Free;
    if (X.rank() == 2 && A.Axis == 0)
      return DataMovementCost::Free;
    if (X.rank() == 2 && A.Axis == 1 && X.dim(0) == 1)
      return DataMovementCost::Free;
    if (X.rank() == 1)
      return DataMovementCost::Free;
    return DataMovementCost::Copy;
  }

  case OpKind::Concat: {
    if (!Enabled)
      return DataMovementCost::Copy;
    const ConcatAttrs &A = std::get<ConcatAttrs>(*N.Attrs);
    const TensorShape &Out = N.output().Shape;
    if (Out.rank() == 4 && Out.dim(0) == 1 && A.Axis == 1)
      return DataMovementCost::Free;
    if (Out.rank() == 2 && A.Axis == 0)
      return DataMovementCost::Free;
    if (Out.rank() == 2 && A.Axis == 1 && Out.dim(0) == 1)
      return DataMovementCost::Free;
    return DataMovementCost::Copy;
  }

  case OpKind::Pad:
    // Folded into a zero-initialized padded allocation when enabled.
    return Enabled ? DataMovementCost::Free : DataMovementCost::Copy;

  default:
    return DataMovementCost::NotDataMovement;
  }
}

DataMovementCost MemoryOptimizer::classify(const Graph &G, NodeId Id) const {
  return classify(GraphNodeView(G, Id));
}

int64_t MemoryOptimizer::copyBytes(const NodeView &N) const {
  if (classify(N) != DataMovementCost::Copy)
    return 0;
  // A copy reads every input once and writes the output once.
  int64_t Bytes = N.output().byteCount();
  for (const Value *In : N.Inputs)
    Bytes += In->byteCount();
  return Bytes;
}

int64_t MemoryOptimizer::copyBytes(const Graph &G, NodeId Id) const {
  return copyBytes(GraphNodeView(G, Id));
}
