//===- bench/fig01_breakdown.cpp - Fig. 1 -----------------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Fig. 1: the GPU runtime breakdown of the CNN models by
/// operator class on an RTX 2080 Ti-class GPU (left), and the arithmetic
/// intensity (# of MACs / # of loaded+stored elements) of the models'
/// convolution layer classes (right). The paper's premise: pointwise (1x1)
/// convolutions are a large share of mobile-CNN runtime and have an
/// arithmetic intensity close to FC layers — the PIM sweet spot.
///
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <map>

#include "BenchCommon.h"
#include "gpu/GpuModel.h"
#include "ir/Metrics.h"

using namespace pf;
using namespace pf::bench;

namespace {

/// Operator class for the breakdown.
const char *classOf(const Node &N) {
  if (N.Kind == OpKind::Gemm)
    return "fc";
  if (N.Kind == OpKind::Conv2d) {
    if (isDepthwiseConv(N))
      return "dw-conv";
    if (N.conv().isPointwise())
      return "1x1-conv";
    return "conv";
  }
  return "other";
}

} // namespace

void pf::bench::fig01_breakdown(const FigureArgs &) {
  printHeader("Figure 1",
              "GPU runtime breakdown by operator class (RTX 2080 Ti-like) "
              "and arithmetic intensity of conv layer classes");

  GpuModel Gpu(GpuConfig::rtx2080TiLike());
  const char *Classes[] = {"conv", "1x1-conv", "dw-conv", "fc", "other"};

  Table Breakdown;
  Breakdown.setHeader({"model", "conv %", "1x1-conv %", "dw-conv %",
                       "fc %", "other %"});
  Table Intensity;
  Intensity.setHeader({"model", "conv MAC/elem", "1x1 MAC/elem",
                       "dw MAC/elem", "fc MAC/elem"});

  for (const std::string &Name : modelNames()) {
    Graph G = buildModel(Name);
    std::map<std::string, double> TimeNs;
    std::map<std::string, double> Macs, Elems;
    for (NodeId Id : G.topoOrder()) {
      const Node &N = G.node(Id);
      TimeNs[classOf(N)] += Gpu.nodeTime(G, Id).Ns;
      const NodeMetrics M = computeMetrics(G, Id);
      Macs[classOf(N)] += static_cast<double>(M.Macs);
      Elems[classOf(N)] += static_cast<double>(M.LdStElements);
    }
    double Total = 0.0;
    for (const char *C : Classes)
      Total += TimeNs[C];
    std::vector<std::string> Row = {Name};
    for (const char *C : Classes)
      Row.push_back(formatStr("%.1f", 100.0 * TimeNs[C] / Total));
    Breakdown.addRow(Row);

    std::vector<std::string> IRow = {Name};
    for (const char *C : {"conv", "1x1-conv", "dw-conv", "fc"})
      IRow.push_back(Elems[C] > 0.0 ? formatStr("%.1f", Macs[C] / Elems[C])
                                    : std::string("-"));
    Intensity.addRow(IRow);
  }

  std::printf("%s\n%s\n", Breakdown.render().c_str(),
              Intensity.render().c_str());
  std::printf("Expected shape: 1x1 convolutions dominate mobile-CNN "
              "runtime; their arithmetic intensity sits far below dense "
              "conv and near FC.\n");
}
