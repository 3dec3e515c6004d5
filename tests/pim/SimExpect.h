//===- tests/pim/SimExpect.h - simulator result equality --------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Field-for-field equality of simulator results and channel traces,
/// shared by the simulator and codegen suites. Callers add a SCOPED_TRACE
/// naming the pair being compared.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_TESTS_PIM_SIMEXPECT_H
#define PIMFLOW_TESTS_PIM_SIMEXPECT_H

#include <gtest/gtest.h>

#include "pim/PimSimulator.h"

namespace pf {

/// Expects \p Got to equal \p Want exactly: makespan, command counts,
/// busy cycles, active channels and every per-channel phase entry.
inline void expectSameRunStats(const PimRunStats &Got,
                               const PimRunStats &Want) {
  EXPECT_EQ(Got.Cycles, Want.Cycles);
  EXPECT_EQ(Got.Ns, Want.Ns);
  EXPECT_EQ(Got.GwriteCmds, Want.GwriteCmds);
  EXPECT_EQ(Got.GwriteBursts, Want.GwriteBursts);
  EXPECT_EQ(Got.GActs, Want.GActs);
  EXPECT_EQ(Got.CompCmds, Want.CompCmds);
  EXPECT_EQ(Got.CompColumns, Want.CompColumns);
  EXPECT_EQ(Got.ReadResCmds, Want.ReadResCmds);
  EXPECT_EQ(Got.BusyCycleSum, Want.BusyCycleSum);
  EXPECT_EQ(Got.ActiveChannels, Want.ActiveChannels);
  ASSERT_EQ(Got.ChannelPhases.size(), Want.ChannelPhases.size());
  for (size_t I = 0; I < Got.ChannelPhases.size(); ++I) {
    const ChannelPhaseCycles &G = Got.ChannelPhases[I];
    const ChannelPhaseCycles &W = Want.ChannelPhases[I];
    SCOPED_TRACE(testing::Message() << "phase entry " << I);
    EXPECT_EQ(G.Channel, W.Channel);
    EXPECT_EQ(G.GwriteCycles, W.GwriteCycles);
    EXPECT_EQ(G.GactCycles, W.GactCycles);
    EXPECT_EQ(G.CompCycles, W.CompCycles);
    EXPECT_EQ(G.ReadResCycles, W.ReadResCycles);
    EXPECT_EQ(G.RetryCycles, W.RetryCycles);
    EXPECT_EQ(G.StallCycles, W.StallCycles);
    EXPECT_EQ(G.CompletionCycles, W.CompletionCycles);
  }
}

/// Expects \p Got to carry exactly \p Want's blocks: the same repeat
/// counts and the same command kinds and counts in the same order.
inline void expectSameChannel(const ChannelTrace &Got,
                              const ChannelTrace &Want) {
  ASSERT_EQ(Got.Blocks.size(), Want.Blocks.size());
  for (size_t B = 0; B < Got.Blocks.size(); ++B) {
    const CommandBlock &G = Got.Blocks[B];
    const CommandBlock &W = Want.Blocks[B];
    SCOPED_TRACE(testing::Message() << "block " << B);
    EXPECT_EQ(G.Repeats, W.Repeats);
    ASSERT_EQ(G.Pattern.size(), W.Pattern.size());
    for (size_t C = 0; C < G.Pattern.size(); ++C) {
      EXPECT_EQ(G.Pattern[C].Kind, W.Pattern[C].Kind) << "command " << C;
      EXPECT_EQ(G.Pattern[C].Count, W.Pattern[C].Count) << "command " << C;
    }
  }
}

} // namespace pf

#endif // PIMFLOW_TESTS_PIM_SIMEXPECT_H
