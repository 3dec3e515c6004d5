//===- codegen/PimKernelSpec.cpp - Convolution lowering ---------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/PimKernelSpec.h"

using namespace pf;

PimKernelSpec pf::lowerToPimSpec(const NodeView &N) {
  PimKernelSpec Spec;
  const TensorShape &X = N.input(0).Shape;

  if (N.Kind == OpKind::Gemm) {
    const TensorShape &W = N.input(1).Shape;
    Spec.M = W.dim(1);
    Spec.K = W.dim(0);
    Spec.NumVectors = X.dim(0);
    Spec.GwriteSegments = 1;
    return Spec;
  }

  const Conv2dAttrs &A = N.conv();
  const TensorShape &O = N.output().Shape;
  Spec.M = O.dim(3);
  Spec.K = A.KernelH * A.KernelW * X.dim(3);
  Spec.NumVectors = O.dim(0) * O.dim(1) * O.dim(2);
  // In NHWC one kernel-window row (KW x Cin) is contiguous; the window has
  // KH such segments.
  Spec.GwriteSegments = A.KernelH;
  return Spec;
}

PimKernelSpec pf::lowerToPimSpec(const Graph &G, NodeId Id) {
  PF_ASSERT(isPimCandidate(G.node(Id)), "lowering a non-PIM-candidate node");
  return lowerToPimSpec(GraphNodeView(G, Id));
}
