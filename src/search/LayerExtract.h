//===- search/LayerExtract.h - Profiling micrograph extraction --*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Extracts single layers and linear chains into standalone micrographs for
/// hardware-measurement-based profiling (Section 4.2.2), as the artifact's
/// profiling step runs each candidate through the simulators in isolation.
/// A micrograph defines what a profile sample is worth: the profiler times
/// pipelined chains on theirs, and prices GPU, PIM and MD-DP samples from
/// node specs to the value their micrographs would give (search/Profiler.h;
/// a PIMFLOW_CHECKED build compares the two on every sample).
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_SEARCH_LAYEREXTRACT_H
#define PIMFLOW_SEARCH_LAYEREXTRACT_H

#include <vector>

#include "ir/Graph.h"

namespace pf {

/// A micrograph plus the ids of the cloned chain nodes inside it.
struct ExtractedGraph {
  Graph G{"micro"};
  std::vector<NodeId> Nodes;
};

/// The chain a GPU, PIM or MD-DP sample of node \p Id profiles: the node
/// plus its trailing activation, when the node's only consumer is one. The
/// activation is part of each sample's memo key and profile-log row; the
/// engine fuses it on either device, so it adds no time.
std::vector<NodeId> sampleChain(const Graph &G, NodeId Id);

/// Clones node \p Id of \p Src into a fresh graph whose inputs are the
/// node's non-parameter inputs; parameters are recreated with identical
/// shapes.
ExtractedGraph extractLayer(const Graph &Src, NodeId Id);

/// Clones a linear chain (node i's first input is node i-1's output; other
/// inputs must be parameters) into a fresh graph.
ExtractedGraph extractChain(const Graph &Src,
                            const std::vector<NodeId> &Chain);

} // namespace pf

#endif // PIMFLOW_SEARCH_LAYEREXTRACT_H
