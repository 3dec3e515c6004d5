//===- bench/table1_config.cpp - Table 1 ------------------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prints Table 1: the DRAM-PIM configuration every experiment runs on —
/// organization, timing parameters (adapted for GDDR6), and the PIMFlow
/// command-optimization extensions.
///
//===----------------------------------------------------------------------===//

#include <cstdio>

#include "BenchCommon.h"
#include "pim/PimConfig.h"

using namespace pf;
using namespace pf::bench;

void pf::bench::table1_config(const FigureArgs &) {
  printHeader("Table 1", "DRAM-PIM configuration");
  const PimConfig C = PimConfig::newtonPlusPlus();

  Table Org;
  Org.setHeader({"parameter", "value"});
  Org.addRow({"Num of PIM channels", formatStr("%d", C.Channels)});
  Org.addRow({"Num of Ranks", "1"});
  Org.addRow({"Num of Banks", formatStr("%d", C.BanksPerChannel)});
  Org.addRow({"Num of Multipliers per bank",
              formatStr("%d", C.MultipliersPerBank)});
  Org.addRow({"Column I/O bit width", formatStr("%db", C.ColumnIOBits)});
  Org.addRow({"Num of Column I/Os per row",
              formatStr("%d", C.ColumnIOsPerRow)});
  Org.addRow({"Global buffer size", formatStr("%d KB",
                                              C.GlobalBufferBytes / 1024)});
  Org.addRow({"Num of global buffers (PIMFlow)",
              formatStr("%d", C.NumGlobalBuffers)});
  Org.addRow({"PIM clock", formatStr("%.1f GHz", C.ClockGhz)});
  std::printf("%s\n", Org.render().c_str());

  Table Timing;
  Timing.setHeader({"timing parameter (cycles)", "value"});
  Timing.addRow({"tCCDL", formatStr("%lld", (long long)C.TCcdl)});
  Timing.addRow({"tG_ACT", formatStr("%lld", (long long)C.TGact)});
  Timing.addRow({"tGWRITE", formatStr("%lld", (long long)C.TGwrite)});
  Timing.addRow({"tRRD", formatStr("%lld", (long long)C.TRrd)});
  Timing.addRow({"tCOMP", formatStr("%lld", (long long)C.TComp)});
  Timing.addRow({"tREADRES", formatStr("%lld", (long long)C.TReadRes)});
  std::printf("%s\n", Timing.render().c_str());

  std::printf("Peak per channel: %lld MACs per COMP every %lld cycles "
              "(%.0f GMAC/s); %d channels -> %.1f TMAC/s.\n",
              (long long)C.macsPerComp(), (long long)C.TComp,
              static_cast<double>(C.macsPerComp()) / C.TComp * C.ClockGhz,
              C.Channels,
              static_cast<double>(C.macsPerComp()) / C.TComp * C.ClockGhz *
                  C.Channels / 1000.0);
}
