//===- tests/codegen/CodegenPropertyTest.cpp - invariant sweeps -*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parameterized invariant sweeps over the command generator's (M, K, V)
/// space: work conservation, input coverage, monotonicity, and mapping
/// validity must hold for every lowered kernel shape, not just the ones
/// the evaluated models produce. The per-pass costs the search bounds
/// candidates with must match the streams the emitter writes.
///
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <bit>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../pim/SimExpect.h"
#include "Mappings.h"

using namespace pf;

namespace {

PimKernelSpec spec(int64_t M, int64_t K, int64_t V, int64_t Segments = 1) {
  PimKernelSpec S;
  S.M = M;
  S.K = K;
  S.NumVectors = V;
  S.GwriteSegments = Segments;
  return S;
}

/// Newton+ without and Newton++ with the strided-GWRITE extension,
/// Newton++ at the smallest and largest PIM channel counts of the Fig. 13
/// channel-ratio sweep, Newton++ capped at the G_ACT and READRES
/// granularities, and Newton++ without GWRITE latency hiding (several
/// buffers, every command serialized).
std::vector<std::pair<PimConfig, CodegenOptions>> sweepConfigs() {
  CodegenOptions Plain;
  Plain.StridedGwrite = false;
  std::vector<std::pair<PimConfig, CodegenOptions>> Out = {
      {PimConfig::newtonPlus(), Plain},
      {PimConfig::newtonPlusPlus(), CodegenOptions{}}};
  for (int Channels : {4, 28}) {
    PimConfig C = PimConfig::newtonPlusPlus();
    C.Channels = Channels;
    Out.push_back({C, CodegenOptions{}});
  }
  for (ScheduleGranularity G :
       {ScheduleGranularity::GAct, ScheduleGranularity::ReadRes}) {
    CodegenOptions Capped;
    Capped.MaxGranularity = G;
    Out.push_back({PimConfig::newtonPlusPlus(), Capped});
  }
  PimConfig Serialized = PimConfig::newtonPlusPlus();
  Serialized.GwriteLatencyHiding = false;
  Out.push_back({Serialized, CodegenOptions{}});
  return Out;
}

/// Configs for the pass-cost property: 1, 2 and 4 buffers and strided
/// GWRITE on and off, at 4 to 64 channels, under the COMP ceiling (which
/// enumerates every mapping the others do).
std::vector<std::pair<PimConfig, CodegenOptions>> passCostConfigs() {
  std::vector<std::pair<PimConfig, CodegenOptions>> Out;
  for (int Channels : {4, 12, 16, 28, 64})
    for (int Buffers : {1, 2, 4})
      for (bool Strided : {false, true}) {
        PimConfig C = PimConfig::newtonPlusPlus();
        C.Channels = Channels;
        C.NumGlobalBuffers = Buffers;
        CodegenOptions O;
        O.StridedGwrite = Strided;
        Out.push_back({C, O});
      }
  return Out;
}

/// Seeded (M, K, V) shapes, log-uniform below 8192 rows, 32768 reduction
/// elements and 8192 vectors.
std::vector<std::tuple<int, int, int>> seededShapes() {
  Rng R(0x5EED);
  auto LogUniform = [&R](int Log2Max) {
    const int Lo = 1 << R.nextBelow(static_cast<uint64_t>(Log2Max) + 1);
    return Lo + static_cast<int>(R.nextBelow(static_cast<uint64_t>(Lo)));
  };
  std::vector<std::tuple<int, int, int>> Out;
  for (int I = 0; I < 24; ++I) {
    const int M = LogUniform(12);
    const int K = LogUniform(14);
    Out.emplace_back(M, K, LogUniform(12));
  }
  // Three vectors fill a pass of two buffers.
  Out.emplace_back(64, 512, 3);
  return Out;
}

} // namespace

class CodegenSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {
protected:
  PimKernelSpec param() const {
    const auto [M, K, V] = GetParam();
    return spec(M, K, V);
  }
};

TEST_P(CodegenSweep, InvariantsHold) {
  const PimKernelSpec S = param();
  for (const auto &[C, O] : sweepConfigs()) {
    SCOPED_TRACE(testing::Message()
                 << "channels=" << C.Channels
                 << " buffers=" << C.NumGlobalBuffers
                 << " hiding=" << C.GwriteLatencyHiding << " granularity="
                 << granularityName(O.MaxGranularity));
    PimCommandGenerator Gen(C, O);
    const PimKernelPlan P = Gen.plan(S);

    // 1. Positive, finite time.
    EXPECT_GT(P.Ns, 0.0);
    EXPECT_LT(P.Ns, 1e12);

    // 2. Work conservation: COMP columns cover every MAC.
    EXPECT_GE(P.Stats.CompColumns * C.macsPerComp(), S.totalMacs());

    // 3. Input coverage: every vector's K elements fetched at least once.
    EXPECT_GE(P.Stats.GwriteBursts * C.BurstBytes,
              S.NumVectors * S.K * 2);

    // 4. Results drained: every output element leaves through READRES.
    EXPECT_GE(P.Stats.ReadResCmds * C.elementsPerComp(),
              S.M * S.NumVectors);

    // 5. Mapping within the device.
    EXPECT_LE(P.ChannelsForM * P.ChannelsForV * P.ChannelsForK,
              C.Channels);
    EXPECT_EQ(P.Trace.numActiveChannels(),
              P.ChannelsForM * P.ChannelsForV * P.ChannelsForK);

    // 6. Stats consistency: the stats match an independent re-simulation
    //    of the emitted traces, field for field.
    {
      SCOPED_TRACE("re-simulated trace vs plan stats");
      expectSameRunStats(PimSimulator(C).run(P.Trace), P.Stats);
    }

    // 7. Planning the chosen mapping directly reproduces the plan.
    const PimKernelPlan Direct = Gen.planWithMapping(
        S, P.ChannelsForM, P.ChannelsForV, P.ChannelsForK);
    EXPECT_EQ(Direct.Ns, P.Ns);
    {
      SCOPED_TRACE("planWithMapping stats vs plan stats");
      expectSameRunStats(Direct.Stats, P.Stats);
    }
    ASSERT_EQ(Direct.Trace.Channels.size(), P.Trace.Channels.size());
    for (size_t Ch = 0; Ch < P.Trace.Channels.size(); ++Ch) {
      SCOPED_TRACE(testing::Message() << "channel " << Ch);
      expectSameChannel(Direct.Trace.Channels[Ch], P.Trace.Channels[Ch]);
    }

    // 8. The pruned search keeps the exhaustive search's winner: no
    //    enumerable mapping is faster, and every one before the kept
    //    mapping is strictly slower (the first fastest mapping wins).
    bool SeenKept = false;
    for (const auto &[Cm, Cv, Ck] : enumerableMappings(C, O, S)) {
      SCOPED_TRACE(testing::Message()
                   << "m" << Cm << ".v" << Cv << ".k" << Ck << " vs kept "
                   << P.describeMapping());
      const double Ns = Gen.planWithMapping(S, Cm, Cv, Ck).Ns;
      EXPECT_GE(Ns, P.Ns);
      const bool Kept = Cm == P.ChannelsForM && Cv == P.ChannelsForV &&
                        Ck == P.ChannelsForK;
      if (!SeenKept && !Kept) {
        EXPECT_GT(Ns, P.Ns);
      }
      SeenKept = SeenKept || Kept;
    }
    EXPECT_TRUE(SeenKept);
  }
}

TEST_P(CodegenSweep, PassCostsMatchEmittedStreams) {
  // The search bounds a mapping by its pass count times the closed-form
  // cost of one pass. That must be exactly what the emitted stream costs:
  // its phase cycles, its GWRITE bursts and its merge time, bit for bit.
  for (const int64_t Segments : {1, 3, 7}) {
    PimKernelSpec S = param();
    S.GwriteSegments = Segments;
    for (const auto &[C, O] : passCostConfigs()) {
      const PimCommandGenerator Gen(C, O);
      ChannelTrace Channel;
      for (const auto &[Cm, Cv, Ck] : enumerableMappings(C, O, S)) {
        SCOPED_TRACE(testing::Message()
                     << "channels=" << C.Channels
                     << " buffers=" << C.NumGlobalBuffers
                     << " strided=" << O.StridedGwrite << " segments="
                     << Segments << " m" << Cm << ".v" << Cv << ".k" << Ck);
        const ChannelMapping Map{Cm, Cv, Ck};
        const PimCommandGenerator::MappingExtras X =
            Gen.emitChannel(S, Map, Channel);
        const PassCost Cost = Gen.passCost(S, Cm, Ck);
        ASSERT_EQ(Channel.Blocks.size(), 1u);
        const int64_t Passes = Channel.Blocks.front().Repeats;
        const ChannelPhaseCycles Emitted = phaseCyclesOf(C, Channel);
        EXPECT_EQ(Passes * Cost.Phases.GwriteCycles, Emitted.GwriteCycles);
        EXPECT_EQ(Passes * Cost.Phases.GactCycles, Emitted.GactCycles);
        EXPECT_EQ(Passes * Cost.Phases.CompCycles, Emitted.CompCycles);
        EXPECT_EQ(Passes * Cost.Phases.ReadResCycles, Emitted.ReadResCycles);
        EXPECT_EQ(Passes * Cost.GwriteBursts, X.GwriteBursts);
        EXPECT_EQ(std::bit_cast<uint64_t>(Cost.MergeNs),
                  std::bit_cast<uint64_t>(X.MergeNs));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MkvGrid, CodegenSweep,
    ::testing::Combine(::testing::Values(1, 16, 144, 1000, 4096),
                       ::testing::Values(16, 24, 576, 25088),
                       ::testing::Values(1, 49, 3136)));

INSTANTIATE_TEST_SUITE_P(Seeded, CodegenSweep,
                         ::testing::ValuesIn(seededShapes()));

TEST(CodegenMonotonicity, TimeGrowsWithEachDimension) {
  PimCommandGenerator Gen(PimConfig::newtonPlusPlus(), CodegenOptions{});
  const double Base = Gen.plan(spec(128, 128, 128)).Ns;
  EXPECT_GE(Gen.plan(spec(512, 128, 128)).Ns, Base);
  EXPECT_GE(Gen.plan(spec(128, 512, 128)).Ns, Base);
  EXPECT_GE(Gen.plan(spec(128, 128, 512)).Ns, Base);
}

TEST(CodegenMonotonicity, MoreChannelsNeverSlower) {
  CodegenOptions O;
  PimConfig Few = PimConfig::newtonPlusPlus();
  Few.Channels = 4;
  PimConfig Many = PimConfig::newtonPlusPlus();
  Many.Channels = 16;
  for (const PimKernelSpec &S :
       {spec(144, 24, 3136), spec(4096, 4096, 1), spec(32, 512, 49)}) {
    EXPECT_LE(PimCommandGenerator(Many, O).plan(S).Ns,
              PimCommandGenerator(Few, O).plan(S).Ns * 1.0001);
  }
}

TEST(CodegenMonotonicity, LatchPressureDrainsPerTile) {
  // A kernel whose rows x buffers exceed the latches and whose K spans
  // multiple tiles must drain partials per tile (more READRES commands).
  PimConfig C = PimConfig::newtonPlusPlus(); // 4 buffers, 512-elem tiles.
  CodegenOptions O;
  PimCommandGenerator Gen(C, O);
  // RowsPerBank * B = ceil(4096/16/16)=16 rows * 4 buffers = 64 > 16.
  const PimKernelPlan Pressured =
      Gen.planWithMapping(spec(4096, 2048, 8), 1, 1, 1);
  // Same shape with K inside one tile: single drain.
  const PimKernelPlan Single =
      Gen.planWithMapping(spec(4096, 512, 8), 1, 1, 1);
  EXPECT_GT(static_cast<double>(Pressured.Stats.ReadResCmds),
            3.9 * static_cast<double>(Single.Stats.ReadResCmds));
}
