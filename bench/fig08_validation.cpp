//===- bench/fig08_validation.cpp - Fig. 8 ----------------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Fig. 8 (the simulator-validation experiment): PIM-vs-GPU
/// speedup for the Newton matrix-vector kernel benchmarks across batch
/// sizes, on a Titan-V-like 24-HBM-channel GPU configuration. The paper's
/// reproduction measured 20.4x at batch 1, shrinking as the batch grows
/// (GPU weight reuse improves; PIM time scales linearly with vectors).
///
//===----------------------------------------------------------------------===//

#include <cstdio>

#include "BenchCommon.h"
#include "ir/Builder.h"
#include "search/Profiler.h"

using namespace pf;
using namespace pf::bench;

void pf::bench::fig08_validation(const FigureArgs &) {
  printHeader("Figure 8",
              "Simulator validation: PIM speedup over GPU for "
              "matrix-vector kernels vs batch size (Titan-V-like GPU)");

  SystemConfig C;
  C.Gpu = GpuConfig::titanVLike();
  C.Pim = PimConfig::newtonPlusPlus();
  Profiler P(C);

  struct MatrixCase {
    int64_t K, M;
  };
  const MatrixCase Matrices[] = {
      {2048, 2048}, {4096, 4096}, {8192, 4096}, {25088, 4096}};
  const int64_t Batches[] = {1, 2, 4, 8, 16};

  Table T;
  {
    std::vector<std::string> Header = {"matrix (KxM)"};
    for (int64_t B : Batches)
      Header.push_back(formatStr("b=%lld", (long long)B));
    T.setHeader(Header);
  }

  for (const MatrixCase &MC : Matrices) {
    std::vector<std::string> Row = {
        formatStr("%lldx%lld", (long long)MC.K, (long long)MC.M)};
    for (int64_t Batch : Batches) {
      GraphBuilder B("gemv");
      ValueId X = B.input("x", TensorShape{Batch, MC.K});
      B.output(B.gemm(X, MC.M));
      Graph G = B.take();
      NodeId N = G.topoOrder().front();
      const double Speedup = P.gpuNodeNs(G, N) / P.pimNodeNs(G, N);
      Row.push_back(formatStr("%.1fx", Speedup));
    }
    T.addRow(Row);
  }

  std::printf("%s\n", T.render().c_str());
  std::printf("Expected shape: order-of-magnitude PIM speedup at batch 1 "
              "(paper: 20.4x reproduced vs 50x in the Newton paper and "
              "~10x in its follow-up), decaying as the batch grows.\n");
}
