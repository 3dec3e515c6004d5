//===- ir/Metrics.h - Per-node cost metrics ---------------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static cost metrics of graph nodes: MAC counts, load/store bytes, and the
/// arithmetic-intensity measure from the paper's Fig. 1 (# of MACs divided
/// by # of loaded/stored elements). The GPU timing model and the
/// preliminary-analysis bench both build on these.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_IR_METRICS_H
#define PIMFLOW_IR_METRICS_H

#include <cstdint>

#include "ir/Graph.h"

namespace pf {

/// Cost summary of one node.
struct NodeMetrics {
  /// Multiply-accumulate operations (conv/gemm) or elementwise op count.
  int64_t Macs = 0;
  /// Total non-MAC arithmetic ops (activations, pooling compares...).
  int64_t OtherOps = 0;
  /// Bytes read: activations + weights (assuming no cache).
  int64_t BytesIn = 0;
  /// Of which weight/parameter bytes.
  int64_t WeightBytes = 0;
  /// Bytes written.
  int64_t BytesOut = 0;

  /// Elements loaded or stored (for arithmetic intensity a la Fig. 1).
  int64_t LdStElements = 0;

  /// Arithmetic intensity: MACs per loaded/stored element.
  double arithmeticIntensity() const {
    return LdStElements == 0
               ? 0.0
               : static_cast<double>(Macs) /
                     static_cast<double>(LdStElements);
  }

  int64_t flops() const { return 2 * Macs + OtherOps; }
};

/// Computes the metrics of node \p N from its operands' shapes, types and
/// parameter flags: the shape-level form.
NodeMetrics computeMetrics(const NodeView &N);

/// Computes the metrics of node \p Id. Shapes must be inferred.
NodeMetrics computeMetrics(const Graph &G, NodeId Id);

/// Sums metrics over all live nodes.
NodeMetrics computeGraphMetrics(const Graph &G);

} // namespace pf

#endif // PIMFLOW_IR_METRICS_H
