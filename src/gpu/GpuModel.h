//===- gpu/GpuModel.h - Analytical GPU timing model -------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Accel-Sim stand-in: a calibrated roofline model that prices a graph
/// node as the max of its compute time (SM throughput derated by occupancy)
/// and its memory time (DRAM traffic over the channel bandwidth), plus a
/// kernel launch overhead. The PIMFlow search only needs *relative*
/// GPU-vs-PIM latencies as functions of layer shape and channel count, which
/// this model reproduces: dense 3x3 convolutions are compute-bound, FC and
/// pointwise layers are bandwidth-bound, and shrinking the channel count
/// only hurts the latter.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_GPU_GPUMODEL_H
#define PIMFLOW_GPU_GPUMODEL_H

#include "gpu/GpuConfig.h"
#include "ir/Graph.h"
#include "ir/Metrics.h"

namespace pf {

/// Timing breakdown of one kernel.
struct GpuKernelTime {
  double Ns = 0.0;        ///< Total latency including launch overhead.
  double ComputeNs = 0.0; ///< SM-bound component.
  double MemoryNs = 0.0;  ///< DRAM-bound component.
  double Utilization = 0.0; ///< Average SM utilization in [0, 1].
};

/// Analytical GPU timing and power model.
class GpuModel {
public:
  explicit GpuModel(GpuConfig Config) : Config(Config) {}

  const GpuConfig &config() const { return Config; }

  /// Latency of executing node \p N as one GPU kernel: the shape-level
  /// form.
  GpuKernelTime nodeTime(const NodeView &N) const;

  /// Latency of executing node \p Id of \p G as one GPU kernel.
  GpuKernelTime nodeTime(const Graph &G, NodeId Id) const;

  /// Latency from raw cost metrics; \p IsMacKernel selects the dense-kernel
  /// (conv/gemm) efficiency path vs the lightweight-kernel path, and
  /// \p SplitKCapable marks kernels (GEMM/GEMV) whose parallelism scales
  /// with the reduction length via split-K decomposition.
  GpuKernelTime kernelTime(const NodeMetrics &M, bool IsMacKernel, bool F16,
                           bool SplitKCapable = false) const;

  /// Energy in joules for running a kernel of the given timing: static
  /// power for the duration plus dynamic power scaled by utilization.
  double kernelEnergyJ(const GpuKernelTime &T) const;

  /// Static energy burned while the GPU sits idle for \p Ns nanoseconds
  /// (e.g. waiting on PIM).
  double idleEnergyJ(double Ns) const;

private:
  GpuConfig Config;
};

} // namespace pf

#endif // PIMFLOW_GPU_GPUMODEL_H
