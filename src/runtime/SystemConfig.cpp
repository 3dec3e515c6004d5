//===- runtime/SystemConfig.cpp - Configuration validation ------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/SystemConfig.h"

#include "support/Format.h"

using namespace pf;

bool pf::validateSystemConfig(const SystemConfig &C, DiagnosticEngine &DE) {
  const size_t Before = DE.errorCount();
  if (C.TotalChannels <= 0)
    DE.error(DiagCode::ConfigInvalid, "TotalChannels",
             formatStr("memory must have at least one channel, got %d",
                       C.TotalChannels));
  if (C.Pim.Channels < 0)
    DE.error(DiagCode::ConfigInvalid, "Pim.Channels",
             formatStr("PIM channel count cannot be negative, got %d",
                       C.Pim.Channels));
  if (C.Pim.Channels > C.TotalChannels)
    DE.error(DiagCode::ConfigInvalid, "Pim.Channels",
             formatStr("%d PIM channels exceed the %d physical channels",
                       C.Pim.Channels, C.TotalChannels));
  else if (C.Pim.Channels > 0 && C.Pim.Channels == C.TotalChannels)
    DE.error(DiagCode::ConfigInvalid, "Pim.Channels",
             "PIM channels must be a proper subset: the GPU channel group "
             "would be empty");
  if (C.Gpu.MemChannels <= 0)
    DE.error(DiagCode::ConfigInvalid, "Gpu.MemChannels",
             formatStr("GPU needs at least one memory channel, got %d",
                       C.Gpu.MemChannels));
  if (C.CrossChannelGBs < 0.0)
    DE.error(DiagCode::ConfigInvalid, "CrossChannelGBs",
             formatStr("cross-channel bandwidth cannot be negative, got %g",
                       C.CrossChannelGBs));
  if (C.SyncOverheadNs < 0.0)
    DE.error(DiagCode::ConfigInvalid, "SyncOverheadNs",
             formatStr("sync overhead cannot be negative, got %g",
                       C.SyncOverheadNs));
  if (C.ContentionFactor < 0.0)
    DE.error(DiagCode::ConfigInvalid, "ContentionFactor",
             formatStr("contention factor cannot be negative, got %g",
                       C.ContentionFactor));
  if (C.hasPim()) {
    // A PIM-enabled config with a degenerate device would divide by zero or
    // produce nonsense timings downstream; reject it here.
    if (C.Pim.BanksPerChannel <= 0)
      DE.error(DiagCode::ConfigInvalid, "Pim.BanksPerChannel",
               formatStr("PIM-enabled config needs banks, got %d",
                         C.Pim.BanksPerChannel));
    if (C.Pim.MultipliersPerBank <= 0)
      DE.error(DiagCode::ConfigInvalid, "Pim.MultipliersPerBank",
               formatStr("PIM-enabled config needs multipliers, got %d",
                         C.Pim.MultipliersPerBank));
    if (C.Pim.ClockGhz <= 0.0)
      DE.error(DiagCode::ConfigInvalid, "Pim.ClockGhz",
               formatStr("PIM clock must be positive, got %g",
                         C.Pim.ClockGhz));
    if (C.Pim.NumGlobalBuffers < 1)
      DE.error(DiagCode::ConfigInvalid, "Pim.NumGlobalBuffers",
               formatStr("PIM-enabled config needs a global buffer, got %d",
                         C.Pim.NumGlobalBuffers));
    if (C.Pim.FetchSupplyGBs <= 0.0)
      DE.error(DiagCode::ConfigInvalid, "Pim.FetchSupplyGBs",
               formatStr("fetch supply bandwidth must be positive, got %g",
                         C.Pim.FetchSupplyGBs));
  }
  return DE.errorCount() == Before;
}

std::string pf::systemConfigPlanSig(const SystemConfig &C) {
  // Every field that feeds a profiled timing or the generated commands.
  // Compiled-in Table-1 constants that no option can change are covered by
  // the binary, not the signature.
  std::string S = formatStr(
      "tc%d/gmc%d/gbw%.9g/gclk%.9g/gf16%.9g/gsm%d/glan%d/gco%.9g",
      C.TotalChannels, C.Gpu.MemChannels, C.Gpu.ChannelBandwidthGBs,
      C.Gpu.ClockGhz, C.Gpu.Fp16Multiplier, C.Gpu.NumSms, C.Gpu.LanesPerSm,
      C.Gpu.CoherenceSlowdown);
  S += formatStr(
      "/pc%d/pb%d/pm%d/pgb%d/prl%d/pclk%.9g/pfs%.9g/ngb%d/lh%d",
      C.Pim.Channels, C.Pim.BanksPerChannel, C.Pim.MultipliersPerBank,
      C.Pim.GlobalBufferBytes, C.Pim.ResultLatchesPerBank, C.Pim.ClockGhz,
      C.Pim.FetchSupplyGBs, C.Pim.NumGlobalBuffers,
      C.Pim.GwriteLatencyHiding ? 1 : 0);
  S += formatStr(
      "/sg%d/gr%d/mo%d/xb%.9g/sy%.9g/mc%d/cf%.9g",
      C.Codegen.StridedGwrite ? 1 : 0,
      static_cast<int>(C.Codegen.MaxGranularity), C.MemoryOptimizer ? 1 : 0,
      C.CrossChannelGBs, C.SyncOverheadNs, C.ModelContention ? 1 : 0,
      C.ContentionFactor);
  return S;
}
