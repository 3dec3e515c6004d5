//===- tests/codegen/WeightPlacementTest.cpp - placement tests --*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/WeightPlacement.h"

#include <gtest/gtest.h>

#include "core/PimFlow.h"
#include "ir/Builder.h"
#include "models/Zoo.h"

using namespace pf;

namespace {

PimKernelSpec spec(int64_t M, int64_t K, int64_t V) {
  PimKernelSpec S;
  S.M = M;
  S.K = K;
  S.NumVectors = V;
  return S;
}

} // namespace

TEST(WeightPlacementTest, RowMathExactCase) {
  // M=256 over 16 channels -> 16 rows/part -> 1 row/bank; K=512 fills
  // exactly one 512-element DRAM row per bank.
  PimConfig C = PimConfig::newtonPlusPlus();
  EXPECT_EQ(dramRowsPerBank(spec(256, 512, 1), 16, C), 1);
  // K=513 spills into a second row.
  EXPECT_EQ(dramRowsPerBank(spec(256, 513, 1), 16, C), 2);
  // Unsplit matrix: 16 rows per bank of 512 elements -> 16 rows.
  EXPECT_EQ(dramRowsPerBank(spec(256, 512, 1), 1, C), 16);
}

TEST(WeightPlacementTest, EmptyGraphPlacesNothing) {
  GraphBuilder B("t");
  ValueId X = B.input("x", TensorShape{1, 8, 8, 4});
  B.output(B.relu(X));
  Graph G = B.take();
  PlacementPlan Plan = placeWeights(G, {}, PimConfig::newtonPlusPlus());
  EXPECT_TRUE(Plan.Entries.empty());
  EXPECT_EQ(Plan.RowsPerBankUsed, 0);
  EXPECT_TRUE(Plan.fits());
}

TEST(WeightPlacementTest, ModelsFitComfortably) {
  // Every evaluated model's offloaded weights fit a 1 GB/channel device
  // with room to spare.
  for (const std::string Model : {"mobilenet-v2", "vgg-16"}) {
    CompileResult R =
        PimFlow(OffloadPolicy::PimFlow).compileAndRun(buildModel(Model));
    PlacementPlan Plan =
        placeWeights(R.Transformed, R.Schedule.Kernels, R.Config.Pim);
    EXPECT_FALSE(Plan.Entries.empty()) << Model;
    EXPECT_TRUE(Plan.fits()) << Model;
    EXPECT_LT(Plan.utilization(), 0.5) << Model;
    EXPECT_GT(Plan.TotalWeightBytes, 0) << Model;
    EXPECT_GE(Plan.PhysicalWeightBytes, Plan.TotalWeightBytes) << Model;
  }
}

TEST(WeightPlacementTest, ReplicationCountsVectorSplits) {
  // A small-matrix/many-vector kernel maps with Cv > 1: its weights
  // replicate across the vector partitions.
  GraphBuilder B("t");
  ValueId X = B.input("x", TensorShape{1, 56, 56, 24});
  B.output(B.conv2d(X, 144, 1, 1, 0));
  Graph G = B.take();
  const NodeId Conv = G.topoOrder().front();
  G.node(Conv).Dev = Device::Pim;
  // The record the engine would keep for the kernel.
  const PimConfig C = PimConfig::newtonPlusPlus();
  const PimKernelRecord K = recordOf(
      Conv, PimCommandGenerator(C, CodegenOptions{})
                .plan(lowerToPimSpec(G, Conv)));
  PlacementPlan Plan = placeWeights(G, {K}, C);
  ASSERT_EQ(Plan.Entries.size(), 1u);
  EXPECT_GT(Plan.Entries[0].Replicas, 1);
  EXPECT_EQ(Plan.PhysicalWeightBytes,
            Plan.TotalWeightBytes * Plan.Entries[0].Replicas);
}

TEST(WeightPlacementTest, TinyCapacityOverflows) {
  Graph Model = buildVgg16();
  CompileResult R = PimFlow(OffloadPolicy::NewtonPlus).compileAndRun(Model);
  PlacementPlan Plan = placeWeights(R.Transformed, R.Schedule.Kernels,
                                    R.Config.Pim,
                                    /*RowsPerBankCapacity=*/16);
  EXPECT_FALSE(Plan.fits());
  EXPECT_GT(Plan.utilization(), 1.0);
}
