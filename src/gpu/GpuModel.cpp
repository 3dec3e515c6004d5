//===- gpu/GpuModel.cpp - Analytical GPU timing model -----------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "gpu/GpuModel.h"

#include <algorithm>

using namespace pf;

GpuKernelTime GpuModel::kernelTime(const NodeMetrics &M, bool IsMacKernel,
                                   bool F16, bool SplitKCapable) const {
  GpuKernelTime T;

  const double Flops = static_cast<double>(M.flops());
  const double Traffic =
      static_cast<double>(M.BytesIn + M.BytesOut) * Config.TrafficInflation;

  // Occupancy derate: small kernels cannot fill the SMs. Convolutions
  // parallelize over output elements (batch-1 kernels are notoriously
  // under-occupied); GEMV/GEMM kernels additionally split the reduction
  // across threads (cuBLAS split-K), so their parallelism scales with
  // total FLOPs (~256 per thread).
  const double OutElems =
      static_cast<double>(M.BytesOut) / (F16 ? 2.0 : 4.0);
  double ParallelWork = OutElems;
  if (SplitKCapable)
    ParallelWork = std::max(ParallelWork, Flops / 256.0);
  const double Occupancy =
      std::min(1.0, ParallelWork / Config.SaturationElements);

  double Efficiency = IsMacKernel ? Config.GemmEfficiency : 0.25;
  Efficiency *= std::max(Occupancy, 0.10);

  T.ComputeNs = Flops / (Config.peakFlops(F16) * Efficiency) * 1e9;
  T.MemoryNs = Traffic / Config.memBandwidth() * 1e9;

  const double Launch =
      IsMacKernel ? Config.KernelLaunchNs : Config.LightKernelLaunchNs;
  // Write-through coherence mode (dual GPU/PIM configuration) slows the
  // kernel body; the launch path is unaffected.
  const double Body =
      std::max(T.ComputeNs, T.MemoryNs) * Config.CoherenceSlowdown;
  T.Ns = Body + Launch;

  // Utilization for the power model: fraction of peak compute achieved over
  // the kernel's lifetime.
  const double IdealComputeNs = Flops / Config.peakFlops(F16) * 1e9;
  T.Utilization = T.Ns > 0.0 ? std::min(1.0, IdealComputeNs / T.Ns) : 0.0;
  // Memory-bound kernels still burn power moving data.
  if (T.MemoryNs > T.ComputeNs)
    T.Utilization = std::max(T.Utilization, 0.35 * (T.MemoryNs / T.Ns));
  return T;
}

GpuKernelTime GpuModel::nodeTime(const NodeView &N) const {
  if (N.Kind == OpKind::Input || N.Kind == OpKind::Identity ||
      N.Kind == OpKind::Flatten)
    return GpuKernelTime{}; // Metadata-only; free at inference time.

  const NodeMetrics M = computeMetrics(N);
  const bool IsMacKernel =
      N.Kind == OpKind::Conv2d || N.Kind == OpKind::Gemm;
  const bool F16 = N.output().Type == DataType::F16;
  return kernelTime(M, IsMacKernel, F16, /*SplitKCapable=*/N.Kind == OpKind::Gemm);
}

GpuKernelTime GpuModel::nodeTime(const Graph &G, NodeId Id) const {
  return nodeTime(GraphNodeView(G, Id));
}

double GpuModel::kernelEnergyJ(const GpuKernelTime &T) const {
  const double Seconds = T.Ns * 1e-9;
  return Seconds * (Config.IdlePowerW + Config.DynamicPowerW * T.Utilization);
}

double GpuModel::idleEnergyJ(double Ns) const {
  return Ns * 1e-9 * Config.IdlePowerW;
}
