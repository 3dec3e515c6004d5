//===- tests/support/RandomCnn.h - seeded random CNN graphs -----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded CNN-like graphs for the property suites: the fuzzed equivalence
/// checks of the transforms and the search, and the exactness of the
/// profiler's priced samples.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_TESTS_SUPPORT_RANDOMCNN_H
#define PIMFLOW_TESTS_SUPPORT_RANDOMCNN_H

#include "ir/Builder.h"
#include "support/Format.h"
#include "support/Random.h"

namespace pf {

/// Generates a random CNN-like graph: a chain of conv / depthwise /
/// pointwise / pool / activation layers with occasional residual adds,
/// ending in a classifier. Shapes stay small so the reference interpreter
/// is fast.
inline Graph randomCnn(uint64_t Seed) {
  Rng R(Seed);
  GraphBuilder B(formatStr("fuzz-%llu", (unsigned long long)Seed));
  int64_t H = 16 + static_cast<int64_t>(R.nextBelow(3)) * 8; // 16/24/32
  ValueId X = B.input("x", TensorShape{1, H, H, 3});
  X = B.relu(B.conv2d(X, 8, 3, 1, 1));

  const int Layers = 3 + static_cast<int>(R.nextBelow(5));
  ValueId Residual = InvalidValue;
  for (int L = 0; L < Layers; ++L) {
    const int64_t C = B.graph().value(X).Shape.dim(3);
    const int64_t CurH = B.graph().value(X).Shape.dim(1);
    switch (R.nextBelow(6)) {
    case 0: { // pointwise expand/project
      const int64_t Cout = 4 + static_cast<int64_t>(R.nextBelow(4)) * 4;
      X = B.conv2d(X, Cout, 1, 1, 0);
      break;
    }
    case 1: // depthwise
      X = B.dwConv(X, 3, 1, 1);
      break;
    case 2: { // dense conv, sometimes strided
      const int64_t Stride = CurH >= 8 && R.nextBelow(2) ? 2 : 1;
      X = B.conv2d(X, C, 3, Stride, 1, 1, R.nextBelow(2) == 0);
      break;
    }
    case 3: // activation
      X = R.nextBelow(2) ? B.relu6(X) : B.silu(X);
      break;
    case 4: // residual bracket
      if (Residual != InvalidValue &&
          B.graph().value(Residual).Shape == B.graph().value(X).Shape) {
        X = B.add(X, Residual);
        Residual = InvalidValue;
      } else {
        Residual = X;
      }
      break;
    case 5: // pool (keep spatial extent workable)
      if (CurH >= 8)
        X = B.maxPool(X, 2, 2);
      break;
    }
  }
  X = B.globalAvgPool(X);
  X = B.flatten(X);
  X = B.gemm(X, 10);
  B.output(X);
  return B.take();
}

} // namespace pf

#endif // PIMFLOW_TESTS_SUPPORT_RANDOMCNN_H
