//===- tests/codegen/CommandGeneratorTest.cpp - codegen tests ---*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/CommandGenerator.h"

#include <gtest/gtest.h>

#include "ir/Builder.h"

using namespace pf;

namespace {

PimCommandGenerator makeGen(bool Optimized) {
  PimConfig C =
      Optimized ? PimConfig::newtonPlusPlus() : PimConfig::newtonPlus();
  CodegenOptions O;
  O.StridedGwrite = Optimized;
  return PimCommandGenerator(C, O);
}

PimKernelSpec spec(int64_t M, int64_t K, int64_t V, int64_t Segments = 1) {
  PimKernelSpec S;
  S.M = M;
  S.K = K;
  S.NumVectors = V;
  S.GwriteSegments = Segments;
  return S;
}

} // namespace

TEST(LoweringTest, PointwiseConv) {
  GraphBuilder B("t");
  ValueId X = B.input("x", TensorShape{1, 56, 56, 24});
  B.output(B.conv2d(X, 144, 1, 1, 0));
  Graph G = B.take();
  PimKernelSpec S = lowerToPimSpec(G, G.topoOrder().front());
  EXPECT_EQ(S.M, 144);
  EXPECT_EQ(S.K, 24);
  EXPECT_EQ(S.NumVectors, 56 * 56);
  EXPECT_EQ(S.GwriteSegments, 1);
  EXPECT_EQ(S.totalMacs(), 144 * 24 * 56 * 56);
}

TEST(LoweringTest, RegularConvIm2col) {
  GraphBuilder B("t");
  ValueId X = B.input("x", TensorShape{1, 28, 28, 64});
  B.output(B.conv2d(X, 128, 3, 2, 1));
  Graph G = B.take();
  PimKernelSpec S = lowerToPimSpec(G, G.topoOrder().front());
  EXPECT_EQ(S.M, 128);
  EXPECT_EQ(S.K, 9 * 64);
  EXPECT_EQ(S.NumVectors, 14 * 14);
  EXPECT_EQ(S.GwriteSegments, 3); // KH contiguous NHWC row segments.
}

TEST(LoweringTest, Gemm) {
  GraphBuilder B("t");
  ValueId X = B.input("x", TensorShape{4, 768});
  B.output(B.gemm(X, 3072));
  Graph G = B.take();
  PimKernelSpec S = lowerToPimSpec(G, G.topoOrder().front());
  EXPECT_EQ(S.M, 3072);
  EXPECT_EQ(S.K, 768);
  EXPECT_EQ(S.NumVectors, 4);
}

TEST(CommandGeneratorTest, WorkConservation) {
  // COMP columns across the device must cover the kernel's MACs.
  for (bool Opt : {false, true}) {
    PimCommandGenerator Gen = makeGen(Opt);
    for (const PimKernelSpec &S :
         {spec(144, 24, 3136), spec(4096, 25088, 1), spec(64, 576, 196),
          spec(16, 16, 1), spec(1000, 1280, 1)}) {
      PimKernelPlan P = Gen.plan(S);
      const int64_t MacCapacity =
          P.Stats.CompColumns * Gen.config().macsPerComp();
      EXPECT_GE(MacCapacity, S.totalMacs())
          << "M=" << S.M << " K=" << S.K << " V=" << S.NumVectors;
      EXPECT_EQ(P.EffectiveMacs, S.totalMacs());
    }
  }
}

TEST(CommandGeneratorTest, GwriteCoversInputData) {
  PimCommandGenerator Gen = makeGen(true);
  PimKernelSpec S = spec(256, 512, 64);
  PimKernelPlan P = Gen.plan(S);
  // Every vector must be fetched at least once (32B bursts).
  const int64_t MinBursts = S.NumVectors * (S.K * 2 / 32);
  EXPECT_GE(P.Stats.GwriteBursts, MinBursts);
}

TEST(CommandGeneratorTest, MappingRespectsChannelCount) {
  PimCommandGenerator Gen = makeGen(true);
  PimKernelPlan P = Gen.plan(spec(144, 24, 3136));
  EXPECT_LE(P.ChannelsForM * P.ChannelsForV * P.ChannelsForK,
            Gen.config().Channels);
  EXPECT_LE(P.Trace.numActiveChannels(), Gen.config().Channels);
}

TEST(CommandGeneratorTest, GActGranularityUsesNoVectorSplit) {
  PimConfig C = PimConfig::newtonPlus();
  CodegenOptions O;
  O.MaxGranularity = ScheduleGranularity::GAct;
  PimCommandGenerator Gen(C, O);
  PimKernelPlan P = Gen.plan(spec(144, 24, 3136));
  EXPECT_EQ(P.ChannelsForV, 1);
  EXPECT_EQ(P.ChannelsForK, 1);
}

TEST(CommandGeneratorTest, FinerGranularityNeverSlower) {
  // The scheduler picks the min over a superset of mappings.
  PimConfig C = PimConfig::newtonPlusPlus();
  CodegenOptions Coarse, Fine;
  Coarse.MaxGranularity = ScheduleGranularity::GAct;
  Fine.MaxGranularity = ScheduleGranularity::Comp;
  for (const PimKernelSpec &S :
       {spec(144, 24, 3136), spec(32, 2048, 1), spec(4096, 4096, 1)}) {
    const double CoarseNs = PimCommandGenerator(C, Coarse).plan(S).Ns;
    const double FineNs = PimCommandGenerator(C, Fine).plan(S).Ns;
    EXPECT_LE(FineNs, CoarseNs + 1e-9);
  }
}

TEST(CommandGeneratorTest, SmallMatrixBenefitsFromFineGranularity) {
  // The paper's motivation for the scheduling pass: a small 1x1-CONV
  // matrix leaves channels idle at G_ACT granularity.
  PimConfig C = PimConfig::newtonPlusPlus();
  CodegenOptions Coarse, Fine;
  Coarse.MaxGranularity = ScheduleGranularity::GAct;
  Fine.MaxGranularity = ScheduleGranularity::Comp;
  const PimKernelSpec S = spec(32, 144, 784);
  const double CoarseNs = PimCommandGenerator(C, Coarse).plan(S).Ns;
  const double FineNs = PimCommandGenerator(C, Fine).plan(S).Ns;
  EXPECT_LT(FineNs, 0.5 * CoarseNs);
}

TEST(CommandGeneratorTest, MultiBufferReducesActivations) {
  // Fig. 14's premise: four global buffers reuse each G_ACT across four
  // input vectors.
  PimConfig One = PimConfig::newtonPlus();
  PimConfig Four = One;
  Four.NumGlobalBuffers = 4;
  CodegenOptions O;
  const PimKernelSpec S = spec(144, 24, 3136);
  PimKernelPlan P1 = PimCommandGenerator(One, O).planWithMapping(S, 1, 16, 1);
  PimKernelPlan P4 =
      PimCommandGenerator(Four, O).planWithMapping(S, 1, 16, 1);
  EXPECT_GT(P1.Stats.GActs, 3 * P4.Stats.GActs);
  EXPECT_LT(P4.Ns, P1.Ns);
}

TEST(CommandGeneratorTest, StridedGwriteHelpsWideKernels) {
  // Without strided GWRITE each of the KH im2col segments pays the
  // first-burst latency.
  PimConfig C = PimConfig::newtonPlus();
  CodegenOptions Strided, Plain;
  Strided.StridedGwrite = true;
  Plain.StridedGwrite = false;
  const PimKernelSpec S = spec(128, 9 * 64, 196, /*Segments=*/3);
  const double WithNs = PimCommandGenerator(C, Strided).plan(S).Ns;
  const double WithoutNs = PimCommandGenerator(C, Plain).plan(S).Ns;
  EXPECT_LT(WithNs, WithoutNs);
}

TEST(CommandGeneratorTest, TimeScalesWithVectors) {
  PimCommandGenerator Gen = makeGen(true);
  const double T1 = Gen.plan(spec(144, 24, 784)).Ns;
  const double T4 = Gen.plan(spec(144, 24, 4 * 784)).Ns;
  EXPECT_GT(T4, 3.0 * T1);
  EXPECT_LT(T4, 5.0 * T1);
}

TEST(CommandGeneratorTest, LargeKTilesOverBufferCapacity) {
  PimCommandGenerator Gen = makeGen(false); // 2048-element buffer.
  // K = 25088 needs ceil(25088/2048) = 13 tiles; each pass re-activates.
  PimKernelPlan P = Gen.planWithMapping(spec(4096, 25088, 1), 16, 1, 1);
  EXPECT_GE(P.Stats.GwriteCmds, 13);
}

TEST(CommandGeneratorTest, MappingDescription) {
  PimCommandGenerator Gen = makeGen(true);
  PimKernelPlan P = Gen.plan(spec(144, 24, 3136));
  const std::string Desc = P.describeMapping();
  EXPECT_NE(Desc.find("m"), std::string::npos);
  EXPECT_NE(Desc.find("@"), std::string::npos);
}

TEST(CommandGeneratorTest, FcMuchFasterThanEquivalentGpuTraffic) {
  // Sanity anchor for Fig. 8: a 4096x4096 GEMV is an order of magnitude
  // faster on PIM than the ~34 MB weight stream would be on a ~450 GB/s
  // GPU (~75 us).
  PimCommandGenerator Gen = makeGen(true);
  PimKernelPlan P = Gen.plan(spec(4096, 4096, 1));
  EXPECT_LT(P.Ns, 75000.0 / 5.0);
}

TEST(CommandGeneratorTest, ThreeVectorKernelsTryVectorSplits) {
  // Three vectors fill two buffers per pass (GWRITE fills 1, 2 or 4), so
  // a kernel of three vectors makes two passes and a vector split can
  // halve them. The search must try it: no mapping that splits the
  // vectors in two may beat the kept one.
  PimCommandGenerator Gen = makeGen(true);
  const int Channels = Gen.config().Channels;
  for (const int64_t M : {16, 64, 256, 1000})
    for (const int64_t K : {64, 512, 2048}) {
      const PimKernelSpec S = spec(M, K, 3);
      const PimKernelPlan P = Gen.plan(S);
      for (int Cm = 1; Cm <= Channels / 2; Cm *= 2)
        for (int Ck = 1; Cm * 2 * Ck <= Channels; Ck *= 2) {
          if (Cm > M || Ck * Gen.config().elementsPerComp() > K)
            continue;
          EXPECT_LE(P.Ns, Gen.planWithMapping(S, Cm, 2, Ck).Ns)
              << "M=" << M << " K=" << K << " kept " << P.describeMapping()
              << " vs m" << Cm << ".v2.k" << Ck;
        }
    }
  EXPECT_EQ(Gen.plan(spec(16, 64, 3)).describeMapping(), "m1.v2.k4@comp");
}
