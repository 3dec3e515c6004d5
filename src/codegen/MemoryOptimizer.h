//===- codegen/MemoryOptimizer.h - Layout optimization ----------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory-layout optimization of Section 4.3.2. MD-DP splitting and
/// pipelining insert Slice / Pad / Concat operators whose data copies would
/// otherwise eat the parallelization gains. With NHWC layout and batch-1
/// inference:
///
///  * slicing along the input height (H) axis of contiguously allocated
///    tensors is a no-op (the slice is a sub-range of the buffer);
///  * concatenating along H into a pre-allocated output is a no-op
///    (producers write directly at their offsets);
///  * Pad folds away by allocating the padded extent up front, zero-filled,
///    and writing payload data at the padding offset.
///
/// The optimizer classifies every data-movement node of a transformed graph
/// as free or as a real copy; the execution engine prices copies at memory
/// bandwidth.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_CODEGEN_MEMORYOPTIMIZER_H
#define PIMFLOW_CODEGEN_MEMORYOPTIMIZER_H

#include "ir/Graph.h"

namespace pf {

/// Classification of a data-movement node.
enum class DataMovementCost : uint8_t {
  NotDataMovement, ///< Not a Slice/Pad/Concat/Flatten node.
  Free,            ///< Eliminated by the layout optimization.
  Copy,            ///< Must be executed as a real copy.
};

/// Memory-layout optimization pass.
class MemoryOptimizer {
public:
  /// \p Enabled=false models the naive back-end (every Slice/Pad/Concat
  /// copies), used to quantify the optimization's contribution.
  explicit MemoryOptimizer(bool Enabled = true) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// Classifies node \p N from its first input and its output: the
  /// shape-level form.
  DataMovementCost classify(const NodeView &N) const;

  /// Classifies node \p Id of \p G.
  DataMovementCost classify(const Graph &G, NodeId Id) const;

  /// Bytes actually copied when executing node \p N (zero when free).
  int64_t copyBytes(const NodeView &N) const;

  /// Bytes actually copied when executing node \p Id (zero when free).
  int64_t copyBytes(const Graph &G, NodeId Id) const;

private:
  bool Enabled;
};

} // namespace pf

#endif // PIMFLOW_CODEGEN_MEMORYOPTIMIZER_H
