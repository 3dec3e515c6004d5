//===- tests/ir/GraphTest.cpp - graph structure tests -----------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Graph.h"

#include <utility>

#include <gtest/gtest.h>

#include "ir/GraphSerializer.h"
#include "plan/PlanArtifact.h"
#include "support/StringUtil.h"

using namespace pf;

namespace {

/// in -> relu -> relu -> out
Graph makeChain() {
  Graph G("chain");
  ValueId In = G.addValue("in", TensorShape{1, 4, 4, 2});
  ValueId Mid = G.addValue("mid", TensorShape{1, 4, 4, 2});
  ValueId Out = G.addValue("out", TensorShape{1, 4, 4, 2});
  G.addNode(OpKind::Relu, "r1", std::monostate{}, {In}, {Mid});
  G.addNode(OpKind::Relu, "r2", std::monostate{}, {Mid}, {Out});
  G.setGraphInputs({In});
  G.setGraphOutputs({Out});
  return G;
}

/// Hashes \p G, so that it keeps its digest, applies \p Mutate, and checks
/// that the hash is a fresh serialization's, that a copy keeps it, and
/// whether the mutation moved it (\p Changes).
void expectHashTracks(void (*Mutate)(Graph &), bool Changes = true,
                      Graph G = makeChain()) {
  const std::string Before = canonicalGraphHash(G);
  Mutate(G);
  const std::string Fresh = fnv1a64Hex(serializeGraph(G));
  EXPECT_EQ(canonicalGraphHash(G), Fresh);
  EXPECT_EQ(Before != Fresh, Changes);
  const Graph Copy = G;
  EXPECT_EQ(canonicalGraphHash(Copy), Fresh);
}

} // namespace

TEST(GraphTest, ProducerTracking) {
  Graph G = makeChain();
  EXPECT_EQ(G.producer(0), InvalidNode); // Graph input.
  EXPECT_EQ(G.producer(1), 0);
  EXPECT_EQ(G.producer(2), 1);
}

TEST(GraphTest, Consumers) {
  Graph G = makeChain();
  EXPECT_EQ(G.consumers(0), std::vector<NodeId>{0});
  EXPECT_EQ(G.consumers(1), std::vector<NodeId>{1});
  EXPECT_TRUE(G.consumers(2).empty());
}

TEST(GraphTest, TopoOrderIsLinear) {
  Graph G = makeChain();
  EXPECT_EQ(G.topoOrder(), (std::vector<NodeId>{0, 1}));
}

TEST(GraphTest, RemoveNodeFreesOutput) {
  Graph G = makeChain();
  G.removeNode(1);
  EXPECT_EQ(G.producer(2), InvalidNode);
  EXPECT_EQ(G.numNodes(), 1u);
  // The output value can be re-produced by a replacement node.
  G.addNode(OpKind::Identity, "replacement", std::monostate{}, {1}, {2});
  EXPECT_EQ(G.producer(2), 2);
  EXPECT_FALSE(G.validate().has_value());
}

TEST(GraphTest, ValidateCatchesMissingOutput) {
  Graph G = makeChain();
  G.removeNode(1);
  auto Err = G.validate();
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("out"), std::string::npos);
}

TEST(GraphTest, ValidateCatchesDanglingConsumer) {
  Graph G = makeChain();
  G.removeNode(0); // r2 now consumes a value with no producer.
  EXPECT_TRUE(G.validate().has_value());
}

TEST(GraphTest, ParamsHaveDistinctSeeds) {
  Graph G("p");
  ValueId A = G.addParam("a", TensorShape{4});
  ValueId B = G.addParam("b", TensorShape{4});
  EXPECT_NE(G.value(A).InitSeed, G.value(B).InitSeed);
  EXPECT_TRUE(G.value(A).IsParam);
}

TEST(GraphTest, ByteCountUsesDataType) {
  Graph G("b");
  ValueId V16 = G.addValue("v16", TensorShape{10}, DataType::F16);
  ValueId V32 = G.addValue("v32", TensorShape{10}, DataType::F32);
  EXPECT_EQ(G.value(V16).byteCount(), 20);
  EXPECT_EQ(G.value(V32).byteCount(), 40);
}

TEST(GraphTest, DiamondTopoOrder) {
  Graph G("diamond");
  ValueId In = G.addValue("in", TensorShape{1, 2, 2, 1});
  ValueId A = G.addValue("a", TensorShape{1, 2, 2, 1});
  ValueId B = G.addValue("b", TensorShape{1, 2, 2, 1});
  ValueId Out = G.addValue("out", TensorShape{1, 2, 2, 1});
  NodeId NA = G.addNode(OpKind::Relu, "a", std::monostate{}, {In}, {A});
  NodeId NB = G.addNode(OpKind::Relu, "b", std::monostate{}, {In}, {B});
  NodeId NAdd = G.addNode(OpKind::Add, "add", std::monostate{}, {A, B},
                          {Out});
  G.setGraphInputs({In});
  G.setGraphOutputs({Out});
  const auto Order = G.topoOrder();
  ASSERT_EQ(Order.size(), 3u);
  EXPECT_EQ(Order.back(), NAdd);
  (void)NA;
  (void)NB;
  EXPECT_FALSE(G.validate().has_value());
}

TEST(GraphTest, PimCandidateRules) {
  Graph G("cand");
  ValueId In = G.addValue("in", TensorShape{1, 8, 8, 4});
  ValueId W = G.addParam("w", TensorShape{1, 1, 4, 8});
  ValueId WDw = G.addParam("wdw", TensorShape{3, 3, 1, 4});
  ValueId C1 = G.addValue("c1", TensorShape{1, 8, 8, 8});
  ValueId C2 = G.addValue("c2", TensorShape{1, 8, 8, 4});
  Conv2dAttrs Pw;
  Conv2dAttrs Dw;
  Dw.KernelH = Dw.KernelW = 3;
  Dw.PadTop = Dw.PadBottom = Dw.PadLeft = Dw.PadRight = 1;
  Dw.Groups = 4;
  NodeId NPw = G.addNode(OpKind::Conv2d, "pw", Pw, {In, W}, {C1});
  NodeId NDw = G.addNode(OpKind::Conv2d, "dw", Dw, {In, WDw}, {C2});
  EXPECT_TRUE(isPimCandidate(G.node(NPw)));
  EXPECT_FALSE(isPimCandidate(G.node(NDw)));
  EXPECT_TRUE(isDepthwiseConv(G.node(NDw)));
  EXPECT_FALSE(isDepthwiseConv(G.node(NPw)));
}

TEST(GraphTest, ExplicitParamData) {
  Graph G("pd");
  ValueId W = G.addParam("w", TensorShape{2, 2});
  EXPECT_EQ(G.paramData(W), nullptr);
  Tensor T(TensorShape{2, 2});
  T.at(3) = 1.5f;
  G.setParamData(W, T);
  ASSERT_NE(G.paramData(W), nullptr);
  EXPECT_EQ(G.paramData(W)->at(3), 1.5f);
}

// The kept content digest follows every way to change a graph: each
// mutator, and writes through the non-const node() and value().
TEST(GraphTest, DigestTracksSetName) {
  expectHashTracks([](Graph &G) { G.setName("renamed"); });
}

TEST(GraphTest, DigestTracksAddValue) {
  // A value no live node or interface reads is not serialized.
  expectHashTracks(
      [](Graph &G) { G.addValue("extra", TensorShape{1, 4, 4, 2}); }, false);
}

TEST(GraphTest, DigestTracksAddParam) {
  expectHashTracks([](Graph &G) { G.addParam("w", TensorShape{2, 2}); },
                   false);
}

TEST(GraphTest, DigestTracksAddNode) {
  Graph Chain = makeChain();
  Chain.addValue("extra", TensorShape{1, 4, 4, 2}); // Value 3.
  expectHashTracks(
      [](Graph &G) {
        G.addNode(OpKind::Relu, "r3", std::monostate{}, {2}, {3});
      },
      true, std::move(Chain));
}

TEST(GraphTest, DigestTracksRemoveNode) {
  expectHashTracks([](Graph &G) { G.removeNode(1); });
}

TEST(GraphTest, DigestTracksReplaceUses) {
  expectHashTracks([](Graph &G) { G.replaceUses(1, 0); });
}

TEST(GraphTest, DigestTracksSetInput) {
  expectHashTracks([](Graph &G) { G.setInput(1, 0, 0); });
}

TEST(GraphTest, DigestTracksSetGraphInputs) {
  expectHashTracks([](Graph &G) { G.setGraphInputs({}); });
}

TEST(GraphTest, DigestTracksSetGraphOutputs) {
  expectHashTracks([](Graph &G) { G.setGraphOutputs({1}); });
}

TEST(GraphTest, DigestTracksSetParamData) {
  // Explicit parameter data is not serialized.
  Graph Chain = makeChain();
  Chain.addParam("w", TensorShape{2, 2}); // Value 3.
  expectHashTracks(
      [](Graph &G) { G.setParamData(3, Tensor(TensorShape{2, 2})); }, false,
      std::move(Chain));
}

TEST(GraphTest, DigestTracksWriteThroughNodeDev) {
  expectHashTracks([](Graph &G) { G.node(0).Dev = Device::Gpu; });
}

TEST(GraphTest, DigestTracksWriteThroughNodeInputs) {
  expectHashTracks([](Graph &G) { G.node(1).Inputs[0] = 0; });
}

TEST(GraphTest, DigestTracksWriteThroughValueShape) {
  expectHashTracks(
      [](Graph &G) { G.value(2).Shape = TensorShape{1, 4, 4, 3}; });
}

#ifdef PIMFLOW_CHECKED
// A write through a reference taken before a hash leaves the kept digest
// stale; the checked build recomputes it on every read and stops there.
TEST(GraphDeathTest, WriteThroughHeldReferenceAbortsTheNextHash) {
  Graph G = makeChain();
  Node &R1 = G.node(0);
  canonicalGraphHash(G);
  R1.Dev = Device::Gpu;
  EXPECT_DEATH(canonicalGraphHash(G), "changed behind its content digest");
}
#endif
