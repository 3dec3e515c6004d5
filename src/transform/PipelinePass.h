//===- transform/PipelinePass.h - Pipelined execution pass ------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pipelining pass (Section 4.2.1): splits every node of a linear chain
/// of consecutive nodes into pipeline-stage nodes so that GPU stages and PIM
/// stages of *different data* overlap.
///
/// Stage boundaries are computed forward through the chain: stage j of node
/// i may only produce the output rows computable from the rows node i-1's
/// stages 0..j have produced, so a stage never waits on a later stage of its
/// producer. Where a filter larger than 1x1 reaches across a stage boundary,
/// a Concat over the earlier stages' outputs supplies the boundary rows —
/// the paper's "concat node before 4(B)".
///
/// PIM-candidate (1x1/regular conv) stages are annotated for PIM; depthwise
/// convolutions and elementwise nodes stay on the GPU.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_TRANSFORM_PIPELINEPASS_H
#define PIMFLOW_TRANSFORM_PIPELINEPASS_H

#include <vector>

#include "ir/Graph.h"

namespace pf {

/// A pipelining request: the chain of nodes (consecutive, each intermediate
/// value single-consumer) and the stage count.
struct PipelineSpec {
  std::vector<NodeId> Chain;
  int NumStages = 2;
};

/// Returns true if \p Spec's chain is a pipelineable linear chain in \p G:
/// every node is a Conv2d or a unary elementwise op, node i's data input is
/// node i-1's sole output, and intermediates have exactly one consumer.
bool isPipelineableChain(const Graph &G, const std::vector<NodeId> &Chain);

/// Returns true if applyPipeline would rewrite \p Spec's chain: it is
/// pipelineable, has at least two stages, and no stage would end up empty.
bool canPipeline(const Graph &G, const PipelineSpec &Spec);

/// Applies the pipelining transformation in place. Returns false (leaving
/// the graph untouched) when the chain cannot be pipelined with the
/// requested stage count (e.g. a stage would end up empty).
bool applyPipeline(Graph &G, const PipelineSpec &Spec);

} // namespace pf

#endif // PIMFLOW_TRANSFORM_PIPELINEPASS_H
