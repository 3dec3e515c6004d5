//===- core/Report.h - Compilation & execution reporting --------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns a CompileResult into a human-readable report: segment summary,
/// per-device utilization, PIM command statistics, weight placement, and
/// the energy breakdown — the `--stats` view of the pimflow driver.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_CORE_REPORT_H
#define PIMFLOW_CORE_REPORT_H

#include <string>

#include "core/PimFlow.h"

namespace pf {

/// Aggregate statistics extracted from a CompileResult.
struct ExecutionStats {
  int GpuKernels = 0;
  int PimKernels = 0;
  int FusedOrFreeNodes = 0;
  double GpuBusyFraction = 0.0;
  double PimBusyFraction = 0.0;
  /// PIM command totals over all offloaded kernels.
  int64_t PimGwriteBursts = 0;
  int64_t PimGActs = 0;
  int64_t PimCompColumns = 0;
  int64_t PimReadRes = 0;
  /// Weight bytes resident in PIM channels (placed at compile time).
  int64_t PimWeightBytes = 0;
  /// Weight bytes of GPU-resident layers.
  int64_t GpuWeightBytes = 0;
};

/// Computes the statistics of \p R (PIM command totals from the kernel
/// records of \p R.Schedule).
ExecutionStats computeStats(const CompileResult &R);

/// Renders the full report.
std::string renderReport(const CompileResult &R);

} // namespace pf

#endif // PIMFLOW_CORE_REPORT_H
