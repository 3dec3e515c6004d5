//===- tests/search/SamplePricingTest.cpp - priced == measured --*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profiler prices GPU, PIM and MD-DP samples from node specs instead
/// of running their micrographs (search/Profiler.h). Its contract is
/// exactness: every price is the very double the sample's micrograph,
/// extracted, transformed and run on the execution engine, gives. These
/// suites check it with `==` over the zoo models and seeded random CNNs,
/// under every policy, 4, 16 and 28 PIM channels, the memory optimizer on
/// and off and contention on and off: every node's GPU sample, every
/// candidate's PIM sample and ratio-grid samples, and the refined ratios
/// an auto-tuning search asks for. Hand-built layers add every ratio on a
/// 1% grid (ratios that round to one device among them), parts that read
/// their whole input, batch-2 slices and joins, and FC layers with and
/// without a bias.
///
//===----------------------------------------------------------------------===//

#include "search/Profiler.h"

#include <gtest/gtest.h>

#include <functional>

#include "../support/RandomCnn.h"
#include "core/PimFlow.h"
#include "ir/Builder.h"
#include "models/Zoo.h"
#include "search/LayerExtract.h"
#include "support/StringUtil.h"
#include "transform/MdDpSplitPass.h"

using namespace pf;

namespace {

/// Rewrites a sample's micrograph given its cloned candidate.
using Rewrite = std::function<void(Graph &, NodeId)>;

/// A cost provider that checks each sample its profiler prices fresh (a
/// memo miss) against the engine's run of the sample's micrograph. A memo
/// hit returns what an earlier, checked miss priced.
class CheckedCosts : public CostProvider {
public:
  explicit CheckedCosts(const SystemConfig &Config)
      : Prof(Config), Engine(Config) {}

  const SystemConfig &config() const override { return Prof.config(); }

  double gpuNodeNs(const Graph &G, NodeId Id) override {
    return check(
        "gpu", G, Id, [&] { return Prof.gpuNodeNs(G, Id); },
        [](Graph &M, NodeId N) { M.node(N).Dev = Device::Gpu; });
  }

  double pimNodeNs(const Graph &G, NodeId Id) override {
    return check(
        "pim", G, Id, [&] { return Prof.pimNodeNs(G, Id); },
        [](Graph &M, NodeId N) { M.node(N).Dev = Device::Pim; });
  }

  double mdDpNs(const Graph &G, NodeId Id, double RatioGpu) override {
    if (RatioGpu <= 0.0)
      return pimNodeNs(G, Id);
    if (RatioGpu >= 1.0)
      return gpuNodeNs(G, Id);
    std::string What = "mddp ";
    appendDouble(What, RatioGpu);
    return check(
        What, G, Id, [&] { return Prof.mdDpNs(G, Id, RatioGpu); },
        [RatioGpu](Graph &M, NodeId N) { applyMdDpSplit(M, N, RatioGpu); });
  }

  /// Pipeline samples run their micrographs anyway; the search is only
  /// here for its refined ratios, so it is told no chain pipelines.
  double pipelineNs(const Graph &, const std::vector<NodeId> &,
                    int) override {
    return -1.0;
  }

  /// Samples compared with their micrographs so far.
  size_t checked() const { return Checked; }

private:
  double check(const std::string &What, const Graph &G, NodeId Id,
               const std::function<double()> &Price,
               const Rewrite &Transform) {
    const size_t Misses = Prof.cacheMisses();
    const double Ns = Price();
    if (Prof.cacheMisses() == Misses)
      return Ns;
    ++Checked;
    ExtractedGraph Micro = extractChain(G, sampleChain(G, Id));
    Transform(Micro.G, Micro.Nodes[0]);
    EXPECT_EQ(Ns, Engine.execute(Micro.G).TotalNs)
        << What << " sample of '" << G.node(Id).Name << "' in "
        << G.name();
    return Ns;
  }

  Profiler Prof;
  ExecutionEngine Engine;
  size_t Checked = 0;
};

/// Every policy's system under each channel count, memory optimizer and
/// contention setting, with auto-tuned ratios.
template <typename Fn> void forEachConfig(Fn &&Body) {
  for (OffloadPolicy Policy : allPolicies())
    for (int Channels : {4, 16, 28})
      for (bool MemOpt : {true, false})
        for (bool Contention : {false, true}) {
          PimFlowOptions O;
          O.PimChannels = Channels;
          O.MemoryOptimizer = MemOpt;
          O.ModelContention = Contention;
          O.AutoTuneRatios = true;
          SCOPED_TRACE(formatStr("%s on %d channels, memopt %d, "
                                 "contention %d",
                                 policyName(Policy), Channels, MemOpt,
                                 Contention));
          Body(systemConfigFor(Policy, O), searchOptionsFor(Policy, O));
        }
}

/// Every node's GPU sample, and every candidate's PIM sample and the
/// samples at \p Ratios, priced on \p Costs.
void sweep(CheckedCosts &Costs, const Graph &G,
           const std::vector<double> &Ratios) {
  for (NodeId Id : G.topoOrder()) {
    Costs.gpuNodeNs(G, Id);
    if (!isPimCandidate(G.node(Id)) || !Costs.config().hasPim())
      continue;
    Costs.pimNodeNs(G, Id);
    for (double R : Ratios)
      Costs.mdDpNs(G, Id, R);
  }
}

/// The search's interior ratio grid, accumulated as it accumulates it.
std::vector<double> ratioGrid(double Step) {
  std::vector<double> Grid;
  for (double R = Step; R < 1.0 - 1e-9; R += Step)
    Grid.push_back(R);
  return Grid;
}

/// A zoo model, or "random-<seed>" for randomCnn(seed).
Graph graphNamed(const std::string &Name) {
  if (Name.rfind("random-", 0) == 0)
    return randomCnn(*parseUint(std::string_view(Name).substr(7)));
  return buildModel(Name);
}

std::vector<std::string> graphNames() {
  std::vector<std::string> Names = {
      "efficientnet-v1-b0", "mobilenet-v2", "mnasnet-1.0",
      "resnet-50",          "vgg-16",       "bert",
      "toy",                "resnet-18",    "squeezenet-1.1"};
  for (int Seed = 1; Seed <= 12; ++Seed)
    Names.push_back(formatStr("random-%d", Seed));
  return Names;
}

} // namespace

class SamplePricing : public ::testing::TestWithParam<std::string> {};

TEST_P(SamplePricing, PricesEqualMicrographs) {
  const Graph G = graphNamed(GetParam());
  const std::vector<double> Grid = ratioGrid(0.1);
  size_t Refined = 0;
  forEachConfig([&](const SystemConfig &Config, const SearchOptions &Options) {
    CheckedCosts Costs(Config);
    sweep(Costs, G, Grid);
    const size_t Swept = Costs.checked();
    EXPECT_GT(Swept, 0u);
    // The search asks for the grid again (hits) and, when it picks a
    // split, for refined ratios around it (misses).
    SearchEngine(Costs, Options).search(G);
    Refined += Costs.checked() - Swept;
  });
  if (GetParam() == "resnet-18") {
    EXPECT_GT(Refined, 0u) << "no refined ratio was priced";
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, SamplePricing,
                         ::testing::ValuesIn(graphNames()),
                         [](const auto &Info) {
                           std::string Name = Info.param;
                           for (char &C : Name)
                             if (!isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return Name;
                         });

namespace {

/// Hand-built layers the zoo shapes rarely or never reach.
Graph cornerCases() {
  GraphBuilder B("corners");
  // Height 2 under a 3x3 window: both parts of every split read the whole
  // input, so no slice is emitted.
  ValueId Short = B.input("short", TensorShape{1, 2, 8, 8});
  B.output(B.relu(B.conv2d(Short, 16, 3, 1, 1, 1, /*WithBias=*/true)));
  // Height 3: a one-row GPU part slices, the two-row PIM part does not.
  ValueId Mixed = B.input("mixed", TensorShape{1, 3, 6, 8});
  B.output(B.conv2d(Mixed, 8, 3, 1, 1));
  // Height 4, strided: few rows, so many ratios round to one device.
  ValueId Few = B.input("few", TensorShape{1, 8, 8, 16});
  B.output(B.silu(B.conv2d(Few, 24, 3, 2, 1, 1, /*WithBias=*/true)));
  // Batch 2: slices and the join copy even under the memory optimizer.
  ValueId Batch = B.input("batch", TensorShape{2, 8, 8, 16});
  B.output(B.conv2d(Batch, 32, 1, 1, 0));
  // FC layers: three features, no bias, and a multi-row (copying) join.
  ValueId Fc = B.input("fc", TensorShape{1, 64});
  B.output(B.gemm(Fc, 3));
  B.output(B.relu(B.gemm(Fc, 32, /*WithBias=*/false)));
  ValueId Rows = B.input("rows", TensorShape{4, 64});
  B.output(B.gemm(Rows, 48));
  return B.take();
}

} // namespace

TEST(SamplePricingCorners, EveryRatioOnAOnePercentGrid) {
  const Graph G = cornerCases();
  const std::vector<double> Grid = ratioGrid(0.01);
  forEachConfig([&](const SystemConfig &Config, const SearchOptions &) {
    CheckedCosts Costs(Config);
    sweep(Costs, G, Grid);
    EXPECT_GT(Costs.checked(), 0u);
  });
}

TEST(SamplePricingCorners, SplitsAreWhatTheCornersSay) {
  // The corner graph exercises what its comments claim: no slice, a
  // single slice, ratios rounding to each device.
  const Graph G = cornerCases();
  std::vector<NodeId> Convs;
  for (NodeId Id : G.topoOrder())
    if (G.node(Id).Kind == OpKind::Conv2d)
      Convs.push_back(Id);
  ASSERT_EQ(Convs.size(), 4u);
  const MdDpCut Short = mdDpCut(G, Convs[0], 0.5);
  EXPECT_EQ(Short.GpuRows.InBegin, 0);
  EXPECT_EQ(Short.GpuRows.InEnd, 2);
  EXPECT_EQ(Short.PimRows.InBegin, 0);
  EXPECT_EQ(Short.PimRows.InEnd, 2);
  const MdDpCut Mixed = mdDpCut(G, Convs[1], 0.3);
  EXPECT_EQ(Mixed.Cut, 1);
  EXPECT_EQ(Mixed.GpuRows.InEnd - Mixed.GpuRows.InBegin, 2);
  EXPECT_EQ(Mixed.PimRows.InEnd - Mixed.PimRows.InBegin, 3);
  EXPECT_TRUE(mdDpCut(G, Convs[2], 0.1).allPim());
  EXPECT_TRUE(mdDpCut(G, Convs[2], 0.9).allGpu());
}
