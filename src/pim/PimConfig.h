//===- pim/PimConfig.h - DRAM-PIM device parameters -------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration of the Newton/AiM-style DRAM-PIM device (the paper's
/// Table 1): channel/bank organization, global-buffer provisioning, command
/// timing parameters adapted for GDDR6, per-command energies, and the two
/// PIM-command optimizations PIMFlow adds (multiple global buffers and
/// GWRITE latency hiding).
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_PIM_PIMCONFIG_H
#define PIMFLOW_PIM_PIMCONFIG_H

#include <cstdint>

#include "support/Assert.h"

namespace pf {

/// DRAM-PIM hardware and timing configuration (Table 1 defaults).
struct PimConfig {
  //===--------------------------------------------------------------------===
  // Organization
  //===--------------------------------------------------------------------===

  /// Number of PIM-enabled memory channels (16 of the 32-channel memory in
  /// the default GPU/PIM channel grouping).
  int Channels = 16;
  /// Banks per channel; all banks compute in lockstep under one command.
  int BanksPerChannel = 16;
  /// fp16 multipliers per bank (one reduction tree each).
  int MultipliersPerBank = 16;
  /// Column I/O width in bits (one COMP fetches this much per bank).
  int ColumnIOBits = 256;
  /// Column I/Os per activated row.
  int ColumnIOsPerRow = 32;
  /// Total global-buffer capacity per channel in bytes.
  int GlobalBufferBytes = 4096;
  /// Accumulation contexts per bank (result latches). A bank can keep this
  /// many partial dot products alive; kernels whose resident rows times
  /// buffered vectors exceed it must drain partial sums per K-tile and
  /// merge them outside the memory.
  int ResultLatchesPerBank = 16;
  /// Burst size of a single GWRITE beat in bytes.
  int BurstBytes = 32;
  /// PIM command clock in GHz (GDDR6 command rate; AiM reports 1 TFLOPS
  /// per 16-bank chip, i.e. 16 banks x 16 MACs at ~2 GHz).
  double ClockGhz = 2.0;

  /// Aggregate GWRITE supply bandwidth in GB/s: input vectors are fetched
  /// from the GPU channel group through the memory network, so the sum of
  /// all PIM channels' fetch traffic cannot exceed what those channels and
  /// the crossbar deliver. Caps kernels with heavily redundant im2col
  /// fetches (large-K convolutions).
  double FetchSupplyGBs = 200.0;

  //===--------------------------------------------------------------------===
  // Timing parameters in clock cycles (Table 1, adapted for GDDR6)
  //===--------------------------------------------------------------------===

  /// Column-to-column delay; issue gap of back-to-back bursts.
  int64_t TCcdl = 2;
  /// Row activate latency of G_ACT (all banks in parallel).
  int64_t TGact = 11;
  /// Latency of the first GWRITE burst (cross-channel fetch setup).
  int64_t TGwrite = 11;
  /// Row-to-row activate delay between consecutive G_ACTs.
  int64_t TRrd = 11;
  /// Per-COMP latency (one column I/O through the MAC tree).
  int64_t TComp = 2;
  /// READRES latency (drain result latches to the bus).
  int64_t TReadRes = 25;

  //===--------------------------------------------------------------------===
  // PIMFlow command optimizations (Section 4.1)
  //===--------------------------------------------------------------------===

  /// Number of global buffers per channel (1 = Newton, 2 = AiM, 4 =
  /// PIMFlow). G_ACT row fetches are reused against this many input
  /// vectors, and GWRITE_2/GWRITE_4 fill several buffers per command.
  int NumGlobalBuffers = 1;
  /// Asynchronously issue G_ACT behind an in-flight GWRITE, possible only
  /// in the split GPU/PIM channel configuration where data is fetched from
  /// GPU channels while PIM channels activate rows.
  bool GwriteLatencyHiding = false;

  //===--------------------------------------------------------------------===
  // Energy parameters (CACTI-7-derived, per command / per byte, in pJ)
  //===--------------------------------------------------------------------===

  double ActEnergyPj = 909.0;      ///< Per G_ACT (all banks of a channel).
  double MacEnergyPj = 0.4;        ///< Per multiply-accumulate.
  double CompFixedPj = 30.0;       ///< Per-COMP command overhead.
  double GwriteEnergyPerBytePj = 4.0; ///< Cross-channel fetch per byte.
  double ReadResEnergyPj = 160.0;  ///< Per READRES (32B over the bus).
  double StaticPowerWPerChannel = 0.05; ///< Background power per channel.

  //===--------------------------------------------------------------------===
  // Derived quantities
  //===--------------------------------------------------------------------===

  /// fp16 elements a single COMP consumes per bank.
  int64_t elementsPerComp() const { return ColumnIOBits / 16; }

  /// fp16 weight elements one activated row supplies per bank.
  int64_t elementsPerRow() const {
    return static_cast<int64_t>(ColumnIOsPerRow) * elementsPerComp();
  }

  /// Capacity of one global buffer in fp16 elements.
  int64_t bufferElements() const {
    PF_ASSERT(NumGlobalBuffers >= 1, "need at least one global buffer");
    return GlobalBufferBytes / NumGlobalBuffers / 2;
  }

  /// MACs per COMP command across all banks of a channel.
  int64_t macsPerComp() const {
    return static_cast<int64_t>(BanksPerChannel) * MultipliersPerBank;
  }

  /// Converts cycles to nanoseconds.
  double cyclesToNs(int64_t Cycles) const {
    return static_cast<double>(Cycles) / ClockGhz;
  }

  /// The fetch-supply floor on a kernel's duration in nanoseconds: the
  /// time FetchSupplyGBs takes to deliver \p GwriteBursts bursts.
  double fetchFloorNs(int64_t GwriteBursts) const {
    const double FetchBytes = static_cast<double>(GwriteBursts) *
                              static_cast<double>(BurstBytes);
    return FetchBytes / (FetchSupplyGBs * 1e9) * 1e9;
  }

  /// Newton+ mechanism: baseline command set (single buffer, no hiding).
  static PimConfig newtonPlus() {
    PimConfig C;
    C.NumGlobalBuffers = 1;
    C.GwriteLatencyHiding = false;
    return C;
  }

  /// Newton++ / PIMFlow mechanism: both PIM-command optimizations on.
  static PimConfig newtonPlusPlus() {
    PimConfig C;
    C.NumGlobalBuffers = 4;
    C.GwriteLatencyHiding = true;
    return C;
  }

  /// HBM-PIM-style configuration (the Samsung bank-level-MAC architecture
  /// the paper cites as an adaptation target): more, slower pseudo-channel
  /// units at a lower clock, with smaller per-channel buffers. PIMFlow's
  /// code generator adapts through the same PimConfig interface.
  static PimConfig hbmPim() {
    PimConfig C;
    C.Channels = 32;            // Pseudo-channels of a 4-stack HBM2.
    C.BanksPerChannel = 8;
    C.MultipliersPerBank = 16;
    C.ClockGhz = 1.2;
    C.GlobalBufferBytes = 2048;
    C.NumGlobalBuffers = 2;
    C.GwriteLatencyHiding = true;
    C.FetchSupplyGBs = 300.0;   // HBM interposer links.
    return C;
  }
};

} // namespace pf

#endif // PIMFLOW_PIM_PIMCONFIG_H
