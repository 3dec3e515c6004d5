//===- tests/codegen/PinnedPlansTest.cpp - pinned plans ---------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A digest of everything PimCommandGenerator::plan() returns and records
/// over a seeded sweep of (config, spec) pairs: the kept mapping, the bits
/// of its Ns, every PimRunStats field including each ChannelPhases entry,
/// the device trace's text and the scoped `codegen.*` and `pim.sim.*`
/// counters. The sweep covers 1, 2 and 4 global buffers, GWRITE latency
/// hiding and strided GWRITE on and off, the three granularity ceilings,
/// 4 to 64 channels, multi-tile K and per-tile drains under latch
/// pressure. The digest was recorded before the search priced candidates
/// from per-pass costs and before planUntraced() existed, so both must
/// leave every plan as it was. planUntraced() must also equal plan() in
/// every field but the trace, counters included.
///
/// Pairs whose buffers-per-pass rule rounds 3 down to 2 (min(buffers,
/// vectors) == 3) are left out: the search used to stop short of their
/// vector splits, and CommandGeneratorTest pins the fix instead.
///
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <bit>
#include <iterator>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "codegen/CommandGenerator.h"
#include "obs/Scope.h"
#include "pim/TraceIO.h"
#include "support/Random.h"
#include "support/StringUtil.h"

using namespace pf;

namespace {

/// A log-uniform integer in [1, 2^(Log2Max + 1)): a uniform octave, then
/// a uniform value inside it.
int64_t logUniform(Rng &R, int Log2Max) {
  const int64_t Lo = int64_t{1}
                     << R.nextBelow(static_cast<uint64_t>(Log2Max) + 1);
  return Lo + static_cast<int64_t>(R.nextBelow(static_cast<uint64_t>(Lo)));
}

struct Pair {
  PimConfig Config;
  CodegenOptions Options;
  PimKernelSpec Spec;
};

/// The next pair of the seeded sweep, or nothing when the draw falls on
/// the excluded min(buffers, vectors) == 3 case.
std::optional<Pair> drawPair(Rng &R) {
  constexpr int ChannelCounts[] = {4, 6, 8, 12, 16, 24, 28, 32, 64};
  constexpr int Buffers[] = {1, 2, 4};
  constexpr ScheduleGranularity Ceilings[] = {ScheduleGranularity::GAct,
                                              ScheduleGranularity::ReadRes,
                                              ScheduleGranularity::Comp};
  Pair P;
  P.Config = PimConfig::newtonPlusPlus();
  P.Config.Channels = ChannelCounts[R.nextBelow(std::size(ChannelCounts))];
  P.Config.NumGlobalBuffers = Buffers[R.nextBelow(std::size(Buffers))];
  P.Config.GwriteLatencyHiding = R.nextBelow(2) == 1;
  P.Options.StridedGwrite = R.nextBelow(2) == 1;
  P.Options.MaxGranularity = Ceilings[R.nextBelow(std::size(Ceilings))];
  P.Spec.M = logUniform(R, 12);
  P.Spec.K = logUniform(R, 13);
  P.Spec.NumVectors = logUniform(R, 12);
  P.Spec.GwriteSegments = 1 + 2 * static_cast<int64_t>(R.nextBelow(4));
  if (std::min<int64_t>(P.Config.NumGlobalBuffers, P.Spec.NumVectors) == 3)
    return std::nullopt;
  return P;
}

void appendStats(std::string &S, const PimRunStats &Stats) {
  for (const int64_t V :
       {Stats.Cycles, Stats.GwriteCmds, Stats.GwriteBursts, Stats.GActs,
        Stats.CompCmds, Stats.CompColumns, Stats.ReadResCmds,
        Stats.BusyCycleSum, static_cast<int64_t>(Stats.ActiveChannels)}) {
    S += ' ';
    appendInt(S, V);
  }
  S += " ns=";
  appendUint(S, std::bit_cast<uint64_t>(Stats.Ns));
  for (const ChannelPhaseCycles &P : Stats.ChannelPhases) {
    S += " |";
    for (const int64_t V :
         {static_cast<int64_t>(P.Channel), P.GwriteCycles, P.GactCycles,
          P.CompCycles, P.ReadResCycles, P.RetryCycles, P.StallCycles,
          P.CompletionCycles}) {
      S += ' ';
      appendInt(S, V);
    }
  }
}

/// The scoped `codegen.*` and `pim.sim.*` counters of \p R.
std::string plannerCounters(const obs::Registry &R) {
  std::string S;
  for (const auto &[Name, V] : R.counterSnapshot()) {
    if (!startsWith(Name, "codegen.") && !startsWith(Name, "pim.sim."))
      continue;
    S += ' ';
    S += Name;
    S += '=';
    appendInt(S, V);
  }
  return S;
}

/// One pair's line: the pair, the kept mapping, the bits of Ns, the
/// stats, a digest of the trace's text and the scoped counters.
std::string pairLine(const Pair &P, const PimKernelPlan &Plan,
                     const obs::Registry &R) {
  std::string S;
  for (const int64_t V :
       {static_cast<int64_t>(P.Config.Channels),
        static_cast<int64_t>(P.Config.NumGlobalBuffers),
        static_cast<int64_t>(P.Config.GwriteLatencyHiding),
        static_cast<int64_t>(P.Options.StridedGwrite), P.Spec.M, P.Spec.K,
        P.Spec.NumVectors, P.Spec.GwriteSegments}) {
    appendInt(S, V);
    S += ' ';
  }
  S += granularityName(P.Options.MaxGranularity);
  S += " -> ";
  S += Plan.describeMapping();
  S += " ns=";
  appendUint(S, std::bit_cast<uint64_t>(Plan.Ns));
  S += " macs=";
  appendInt(S, Plan.EffectiveMacs);
  appendStats(S, Plan.Stats);
  S += " trace=";
  S += fnv1a64Hex(dumpTrace(Plan.Trace));
  S += plannerCounters(R);
  S += '\n';
  return S;
}

} // namespace

TEST(PinnedPlans, SeededSweep) {
  constexpr int NumPairs = 2400;
  Rng R(20231017);
  std::string Text;
  int Drawn = 0, Skipped = 0;
  int MultiTile = 0, Drains = 0, Serialized = 0, Unstrided = 0;
  int PerBuffers[5] = {};
  while (Drawn < NumPairs) {
    const std::optional<Pair> P = drawPair(R);
    if (!P) {
      ++Skipped;
      continue;
    }
    ++Drawn;
    const PimCommandGenerator Gen(P->Config, P->Options);
    obs::Scope Run;
    PimKernelPlan Plan;
    {
      obs::ScopeGuard Guard(Run);
      Plan = Gen.plan(P->Spec);
    }
    const std::string Line = pairLine(*P, Plan, Run.registry());
    Text += Line;

    obs::Scope UntracedRun;
    PimKernelPlan Untraced;
    {
      obs::ScopeGuard Guard(UntracedRun);
      Untraced = Gen.planUntraced(P->Spec);
    }
    EXPECT_TRUE(Untraced.Trace.Channels.empty());
    Untraced.Trace = Plan.Trace;
    EXPECT_EQ(pairLine(*P, Untraced, UntracedRun.registry()), Line);

    // Coverage of the kept mappings.
    const int64_t B =
        std::min<int64_t>(P->Config.NumGlobalBuffers, P->Spec.NumVectors);
    const int64_t KPart =
        (P->Spec.K + Plan.ChannelsForK - 1) / Plan.ChannelsForK;
    const int64_t Tiles = (KPart + P->Config.bufferElements() - 1) /
                          P->Config.bufferElements();
    const int64_t RowsPerPart =
        (P->Spec.M + Plan.ChannelsForM - 1) / Plan.ChannelsForM;
    const int64_t RowsPerBank = (RowsPerPart + P->Config.BanksPerChannel - 1) /
                                P->Config.BanksPerChannel;
    MultiTile += Tiles > 1;
    Drains += Tiles > 1 && RowsPerBank * B > P->Config.ResultLatchesPerBank;
    Serialized += !P->Config.GwriteLatencyHiding;
    Unstrided += !P->Options.StridedGwrite && P->Spec.GwriteSegments > 1;
    ++PerBuffers[P->Config.NumGlobalBuffers];
  }
  EXPECT_GT(Skipped, 0);
  EXPECT_GT(MultiTile, 100);
  EXPECT_GT(Drains, 20);
  EXPECT_GT(Serialized, 100);
  EXPECT_GT(Unstrided, 100);
  for (const int Buffers : {1, 2, 4})
    EXPECT_GT(PerBuffers[Buffers], 100) << Buffers << " buffers";

  const std::string Digest = fnv1a64Hex(Text);
  EXPECT_TRUE(Text.size() == 1807133u && Digest == "daf0a64791f0ebb7")
      << "plans drifted; now {" << Text.size() << "u, \"" << Digest << "\"}";
}
