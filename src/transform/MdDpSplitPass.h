//===- transform/MdDpSplitPass.h - Multi-device data-parallel ---*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-device parallelization pass (Section 4.2.1): splits one
/// PIM-candidate node into a GPU part and a PIM part that execute in
/// parallel on disjoint portions of the data, then concatenates their
/// outputs back into the original output tensor.
///
/// Convolutions split along the output-height axis (with the input sliced
/// to the rows each part reads and per-part residual padding). FC layers
/// split along the batch-row axis when the batch has multiple rows, and
/// along the output-feature axis (slicing the weight matrix) for batch-1
/// inference. All inserted Slice/Concat nodes move data along axes the
/// memory optimizer turns into no-ops.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_TRANSFORM_MDDPSPLITPASS_H
#define PIMFLOW_TRANSFORM_MDDPSPLITPASS_H

#include <optional>

#include "ir/Graph.h"
#include "transform/SplitUtil.h"

namespace pf {

/// Where an MD-DP split at a ratio cuts a node: the GPU part computes
/// output rows (convolution) or output features (FC) [0, Cut) of Extent,
/// the PIM part [Cut, Extent). The split pass and the profiler, which
/// prices splits without performing them, share it.
struct MdDpCut {
  int64_t Cut = 0;
  int64_t Extent = 0;
  /// A split convolution's input rows and residual padding per part.
  ConvInputReq GpuRows, PimRows;

  /// The ratio rounds to all-PIM or all-GPU: nothing to split.
  bool allPim() const { return Cut <= 0; }
  bool allGpu() const { return Cut >= Extent; }
};

/// The cut of PIM candidate \p Id of \p G at \p RatioGpu.
MdDpCut mdDpCut(const Graph &G, NodeId Id, double RatioGpu);

/// Nodes created by one MD-DP split.
struct MdDpResult {
  NodeId GpuPart = InvalidNode;
  NodeId PimPart = InvalidNode;
  NodeId ConcatNode = InvalidNode;
};

/// Splits node \p Id so that a \p RatioGpu fraction of the work runs on the
/// GPU and the rest on PIM (Table 2's "split ratio to GPU").
///
/// When the ratio rounds to 0 or 1 no split is performed: the node is
/// annotated to run entirely on PIM (ratio 0) or GPU (ratio 1) and
/// std::nullopt is returned. Otherwise the graph is rewritten in place and
/// the created nodes are returned. \p Id must be a PIM candidate with
/// inferred shapes.
std::optional<MdDpResult> applyMdDpSplit(Graph &G, NodeId Id,
                                         double RatioGpu);

} // namespace pf

#endif // PIMFLOW_TRANSFORM_MDDPSPLITPASS_H
