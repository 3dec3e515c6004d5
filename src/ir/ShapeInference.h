//===- ir/ShapeInference.h - Shape propagation ------------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Propagates tensor shapes from graph inputs/parameters through every live
/// node. Transformation passes call this after rewriting a graph to refresh
/// value shapes and to catch malformed rewrites early.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_IR_SHAPEINFERENCE_H
#define PIMFLOW_IR_SHAPEINFERENCE_H

#include <optional>
#include <string>

#include "ir/Graph.h"

namespace pf {

/// Computes the output shape of node \p Id from its current input shapes
/// into \p Out, leaving the graph as it is (an Input node's is its stored
/// shape). Returns an error string on inconsistent inputs.
std::optional<std::string> inferNodeShapes(const Graph &G, NodeId Id,
                                           TensorShape &Out);

/// As above, but writes the shape into the node's output value.
std::optional<std::string> inferNodeShapes(Graph &G, NodeId Id);

/// Runs inferNodeShapes over all live nodes in topological order.
/// Returns the first error encountered, or std::nullopt on success.
std::optional<std::string> inferShapes(Graph &G);

/// Convenience: computes a Conv2d output spatial extent.
inline int64_t convOutExtent(int64_t In, int64_t Kernel, int64_t Stride,
                             int64_t PadLo, int64_t PadHi) {
  return (In + PadLo + PadHi - Kernel) / Stride + 1;
}

} // namespace pf

#endif // PIMFLOW_IR_SHAPEINFERENCE_H
