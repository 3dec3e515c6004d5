//===- codegen/PimKernelSpec.h - Convolution lowering -----------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convolution lowering for the DRAM-PIM back-end. A PIM-offloadable node is
/// lowered to a batch of matrix-vector multiplications (Section 2.2): the
/// filter matrix [M x K] lives in the memory cell arrays, and every output
/// position contributes one K-long input vector that is GWRITE'd into a
/// global buffer.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_CODEGEN_PIMKERNELSPEC_H
#define PIMFLOW_CODEGEN_PIMKERNELSPEC_H

#include <compare>

#include "ir/Graph.h"

namespace pf {

/// A PIM workload after convolution lowering: NumVectors GEMVs of a fixed
/// [M x K] weight matrix.
struct PimKernelSpec {
  /// Output features (Cout / FC width): rows of the weight matrix.
  int64_t M = 0;
  /// Reduction length (KH*KW*Cin for conv, K for FC).
  int64_t K = 0;
  /// Number of input vectors (N*Ho*Wo output positions; batch rows for FC).
  int64_t NumVectors = 0;
  /// Contiguous memory segments per input vector. Pointwise conv and FC
  /// vectors are fully contiguous (1); a KHxKW conv window in NHWC consists
  /// of KH contiguous row segments. Without the strided-GWRITE extension
  /// each segment needs its own GWRITE command.
  int64_t GwriteSegments = 1;

  /// Useful multiply-accumulates.
  int64_t totalMacs() const { return M * K * NumVectors; }

  /// Weight bytes resident in the cell arrays (fp16).
  int64_t weightBytes() const { return M * K * 2; }

  bool valid() const { return M > 0 && K > 0 && NumVectors > 0; }

  /// Field-wise order: kernels that compare equal plan identically.
  auto operator<=>(const PimKernelSpec &) const = default;
};

/// Lowers node \p Id to a PimKernelSpec. The node must be a PIM candidate
/// (Gemm, or Conv2d with Groups == 1) with inferred shapes.
PimKernelSpec lowerToPimSpec(const Graph &G, NodeId Id);

} // namespace pf

#endif // PIMFLOW_CODEGEN_PIMKERNELSPEC_H
