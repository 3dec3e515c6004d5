//===- tests/ir/VerifierTest.cpp - Graph verifier mutation tests -*- C++ -*-=//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Mutation tests for the graph verifier: start from a well-formed graph,
/// seed one invariant violation through the mutable IR accessors, and
/// assert the verifier reports it with the expected diagnostic code — the
/// acceptance contract for every future transform bug becoming a pinpointed
/// diagnostic instead of a wrong answer.
///
//===----------------------------------------------------------------------===//

#include <limits>
#include <utility>

#include <gtest/gtest.h>

#include "ir/Builder.h"
#include "ir/Verifier.h"
#include "models/Zoo.h"
#include "transform/SplitUtil.h"

using namespace pf;

namespace {

/// input -> conv3x3 -> relu -> conv1x1 -> output, all shapes inferred.
Graph convGraph() {
  GraphBuilder B("verifier-fixture");
  ValueId X = B.input("x", TensorShape{1, 8, 8, 3});
  X = B.relu(B.conv2d(X, 8, 3, 1, 1));
  X = B.conv2d(X, 4, 1, 1, 0);
  B.output(X);
  return B.take();
}

/// Finds the first live node of \p Kind.
NodeId findNode(const Graph &G, OpKind Kind) {
  for (const Node &N : G.nodes())
    if (!N.Dead && N.Kind == Kind)
      return N.Id;
  return InvalidNode;
}

/// Runs the verifier and returns the engine for code inspection.
DiagnosticEngine verifyAll(const Graph &G) {
  DiagnosticEngine DE;
  verify(G, DE);
  return DE;
}

} // namespace

TEST(VerifierTest, CleanGraphVerifies) {
  const Graph G = convGraph();
  DiagnosticEngine DE;
  EXPECT_TRUE(verify(G, DE));
  EXPECT_FALSE(DE.hasErrors());
  EXPECT_FALSE(verify(G).has_value());
}

TEST(VerifierTest, ZooModelsVerifyClean) {
  EXPECT_FALSE(verify(buildToy()).has_value());
  EXPECT_FALSE(verify(buildMobileNetV2()).has_value());
}

// Mutation 1/5: dangling ValueId.
TEST(VerifierTest, CatchesDanglingValueId) {
  Graph G = convGraph();
  const NodeId Conv = findNode(G, OpKind::Conv2d);
  G.node(Conv).Inputs[0] = 9999;
  DiagnosticEngine DE;
  EXPECT_FALSE(verify(G, DE));
  EXPECT_TRUE(DE.hasCode(DiagCode::VerifyDanglingValue)) << DE.render();
}

// Mutation 2/5: use-before-def (a consumed value nothing produces).
TEST(VerifierTest, CatchesUseBeforeDef) {
  Graph G = convGraph();
  const ValueId Orphan = G.addValue("orphan", TensorShape{1, 8, 8, 3});
  const NodeId Conv = findNode(G, OpKind::Conv2d);
  G.node(Conv).Inputs[0] = Orphan;
  DiagnosticEngine DE;
  EXPECT_FALSE(verify(G, DE));
  EXPECT_TRUE(DE.hasCode(DiagCode::VerifyUseBeforeDef)) << DE.render();
}

TEST(VerifierTest, CatchesUseOfDeadProducer) {
  Graph G = convGraph();
  const NodeId Conv = findNode(G, OpKind::Conv2d);
  // Kill the producer without rewiring its consumer.
  G.node(Conv).Dead = true;
  DiagnosticEngine DE;
  EXPECT_FALSE(verify(G, DE));
  EXPECT_TRUE(DE.hasCode(DiagCode::VerifyUseBeforeDef)) << DE.render();
}

// Mutation 3/5: stale shape (stored extent disagrees with inference).
TEST(VerifierTest, CatchesStaleShape) {
  Graph G = convGraph();
  const ValueId Out = G.graphOutputs()[0];
  G.value(Out).Shape.setDim(3, 999);
  DiagnosticEngine DE;
  EXPECT_FALSE(verify(G, DE));
  EXPECT_TRUE(DE.hasCode(DiagCode::VerifyStaleShape)) << DE.render();
}

// Mutation 4/5: illegal conv attributes.
TEST(VerifierTest, CatchesZeroStride) {
  Graph G = convGraph();
  const NodeId Conv = findNode(G, OpKind::Conv2d);
  std::get<Conv2dAttrs>(G.node(Conv).Attrs).StrideH = 0;
  DiagnosticEngine DE;
  EXPECT_FALSE(verify(G, DE));
  EXPECT_TRUE(DE.hasCode(DiagCode::VerifyIllegalAttrs)) << DE.render();
}

TEST(VerifierTest, CatchesPadNotSmallerThanKernel) {
  Graph G = convGraph();
  const NodeId Conv = findNode(G, OpKind::Conv2d);
  // kernel 3, pad 3: parts of an H-split could read only padding — the
  // degenerate case the split arithmetic cannot handle.
  std::get<Conv2dAttrs>(G.node(Conv).Attrs).PadTop = 3;
  DiagnosticEngine DE;
  EXPECT_FALSE(verify(G, DE));
  EXPECT_TRUE(DE.hasCode(DiagCode::VerifyIllegalAttrs)) << DE.render();
}

TEST(VerifierTest, CatchesNegativePadding) {
  Graph G = convGraph();
  const NodeId Conv = findNode(G, OpKind::Conv2d);
  std::get<Conv2dAttrs>(G.node(Conv).Attrs).PadLeft = -1;
  EXPECT_TRUE(verifyAll(G).hasCode(DiagCode::VerifyIllegalAttrs));
}

// Mutation 5/5: overlapping HPieces.
TEST(VerifierTest, CatchesOverlappingHPieces) {
  Graph G("pieces");
  const ValueId A = G.addValue("a", TensorShape{1, 4, 8, 3});
  const ValueId B = G.addValue("b", TensorShape{1, 4, 8, 3});
  DiagnosticEngine DE;
  EXPECT_FALSE(
      checkPieces(G, {HPiece{0, 4, A}, HPiece{2, 6, B}}, DE));
  EXPECT_TRUE(DE.hasCode(DiagCode::VerifyPieceOverlap)) << DE.render();
}

TEST(VerifierTest, CatchesHPieceGap) {
  Graph G("pieces");
  const ValueId A = G.addValue("a", TensorShape{1, 4, 8, 3});
  const ValueId B = G.addValue("b", TensorShape{1, 4, 8, 3});
  DiagnosticEngine DE;
  EXPECT_FALSE(
      checkPieces(G, {HPiece{0, 4, A}, HPiece{6, 10, B}}, DE));
  EXPECT_TRUE(DE.hasCode(DiagCode::VerifyPieceGap)) << DE.render();
}

TEST(VerifierTest, CleanHPiecesPass) {
  Graph G("pieces");
  const ValueId A = G.addValue("a", TensorShape{1, 4, 8, 3});
  const ValueId B = G.addValue("b", TensorShape{1, 6, 8, 3});
  DiagnosticEngine DE;
  EXPECT_TRUE(checkPieces(G, {HPiece{0, 4, A}, HPiece{4, 10, B}}, DE));
  EXPECT_FALSE(DE.hasErrors());
}

TEST(VerifierTest, CatchesHPieceHeightMismatch) {
  Graph G("pieces");
  const ValueId A = G.addValue("a", TensorShape{1, 5, 8, 3});
  DiagnosticEngine DE;
  EXPECT_FALSE(checkPieces(G, {HPiece{0, 4, A}}, DE));
  EXPECT_TRUE(DE.hasCode(DiagCode::VerifyStaleShape)) << DE.render();
}

// Further structural violations beyond the 5 required classes.

TEST(VerifierTest, CatchesDataflowCycle) {
  GraphBuilder B("cycle");
  ValueId X = B.input("x", TensorShape{1, 4, 4, 3});
  ValueId R1 = B.relu(X);
  ValueId R2 = B.relu(R1);
  B.output(R2);
  Graph G = B.take();
  const NodeId First = G.producer(R1);
  // Close the loop: the first relu now consumes the second's output.
  G.node(First).Inputs[0] = R2;
  DiagnosticEngine DE;
  EXPECT_FALSE(verify(G, DE));
  EXPECT_TRUE(DE.hasCode(DiagCode::VerifyCycle)) << DE.render();
}

TEST(VerifierTest, CatchesBrokenProducerLink) {
  Graph G = convGraph();
  const NodeId Relu = findNode(G, OpKind::Relu);
  const NodeId Conv = findNode(G, OpKind::Conv2d);
  // The relu claims the conv's output as its own.
  G.node(Relu).Outputs.push_back(G.node(Conv).Outputs[0]);
  DiagnosticEngine DE;
  EXPECT_FALSE(verify(G, DE));
  EXPECT_TRUE(DE.hasCode(DiagCode::VerifyProducerLink)) << DE.render();
}

TEST(VerifierTest, CatchesNodeWithoutOutputs) {
  Graph G = convGraph();
  const NodeId Relu = findNode(G, OpKind::Relu);
  G.node(Relu).Outputs.clear();
  EXPECT_TRUE(verifyAll(G).hasCode(DiagCode::VerifyProducerLink));
}

// The def-use index: an input rewritten behind the graph's back leaves its
// consumer lists stale; the same rewrite through setInput keeps them fresh.
TEST(VerifierTest, CatchesStaleIndex) {
  Graph G = convGraph();
  const NodeId Relu = findNode(G, OpKind::Relu);
  const ValueId X = G.graphInputs()[0];
  Graph Kept = G;
  Kept.setInput(Relu, 0, X);
  EXPECT_FALSE(verifyAll(Kept).hasCode(DiagCode::VerifyStaleIndex));

  G.node(Relu).Inputs[0] = X;
  const DiagnosticEngine DE = verifyAll(G);
  EXPECT_TRUE(DE.hasCode(DiagCode::VerifyStaleIndex)) << DE.render();
  EXPECT_NE(DE.render().find("its live readers are"), std::string::npos)
      << DE.render();

  // Two convs swapping weights keep every list's length; only the entries
  // are stale.
  Graph Swapped = convGraph();
  std::vector<NodeId> Convs;
  for (const Node &N : Swapped.nodes())
    if (N.Kind == OpKind::Conv2d)
      Convs.push_back(N.Id);
  ASSERT_EQ(Convs.size(), 2u);
  std::swap(Swapped.node(Convs[0]).Inputs[1], Swapped.node(Convs[1]).Inputs[1]);
  EXPECT_TRUE(verifyAll(Swapped).hasCode(DiagCode::VerifyStaleIndex));
}

TEST(VerifierTest, CatchesStaleLiveCount) {
  Graph G = convGraph();
  // Killed behind the graph's back: the live-node count is stale too.
  G.node(G.producer(G.graphOutputs()[0])).Dead = true;
  const DiagnosticEngine DE = verifyAll(G);
  EXPECT_TRUE(DE.hasCode(DiagCode::VerifyStaleIndex)) << DE.render();
  EXPECT_NE(DE.render().find("live nodes"), std::string::npos)
      << DE.render();
}

TEST(VerifierTest, CatchesNonFiniteEpsilon) {
  const float Bad[] = {std::numeric_limits<float>::quiet_NaN(),
                       std::numeric_limits<float>::infinity(), 0.0f, -1e-5f};
  for (const float Eps : Bad) {
    SCOPED_TRACE(testing::Message() << "eps=" << Eps);
    GraphBuilder B("norms");
    ValueId X = B.input("x", TensorShape{1, 4, 4, 8});
    X = B.layerNorm(B.batchNorm(X));
    B.output(X);
    Graph BatchNormBad = B.take();
    Graph LayerNormBad = BatchNormBad;
    std::get<BatchNormAttrs>(
        BatchNormBad.node(findNode(BatchNormBad, OpKind::BatchNorm)).Attrs)
        .Epsilon = Eps;
    std::get<LayerNormAttrs>(
        LayerNormBad.node(findNode(LayerNormBad, OpKind::LayerNorm)).Attrs)
        .Epsilon = Eps;
    EXPECT_TRUE(verifyAll(BatchNormBad).hasCode(DiagCode::VerifyIllegalAttrs));
    EXPECT_TRUE(verifyAll(LayerNormBad).hasCode(DiagCode::VerifyIllegalAttrs));
  }
}

TEST(VerifierTest, CatchesWhitespaceInName) {
  Graph G = convGraph();
  G.node(findNode(G, OpKind::Relu)).Name = "my relu";
  EXPECT_TRUE(verifyAll(G).hasCode(DiagCode::VerifyBadName));
}

TEST(VerifierTest, CatchesPimOnNonCandidate) {
  GraphBuilder B("device");
  ValueId X = B.input("x", TensorShape{1, 8, 8, 4});
  X = B.dwConv(X, 3, 1, 1); // Depthwise: must stay on GPU.
  B.output(X);
  Graph G = B.take();
  G.node(findNode(G, OpKind::Conv2d)).Dev = Device::Pim;
  EXPECT_TRUE(verifyAll(G).hasCode(DiagCode::VerifyDevice));
}

TEST(VerifierTest, CatchesUnproducedGraphOutput) {
  Graph G = convGraph();
  const ValueId Orphan = G.addValue("orphan", TensorShape{1, 4, 4, 4});
  G.setGraphOutputs({Orphan});
  EXPECT_TRUE(verifyAll(G).hasCode(DiagCode::VerifyGraphOutput));
}

TEST(VerifierTest, CatchesAttrStructMismatch) {
  Graph G = convGraph();
  G.node(findNode(G, OpKind::Conv2d)).Attrs = std::monostate{};
  EXPECT_TRUE(verifyAll(G).hasCode(DiagCode::VerifyIllegalAttrs));
}

TEST(VerifierTest, CatchesShapeInferenceRejection) {
  Graph G = convGraph();
  const NodeId Conv = findNode(G, OpKind::Conv2d);
  // Shrink the weight's kernel extent: inference reports a mismatch with
  // the conv's KernelH attribute.
  G.value(G.node(Conv).Inputs[1]).Shape.setDim(0, 2);
  EXPECT_TRUE(verifyAll(G).hasCode(DiagCode::VerifyShapeInfer));
}

TEST(VerifierTest, VerifyCollectsMultipleFindings) {
  Graph G = convGraph();
  G.node(findNode(G, OpKind::Relu)).Name = "bad name";
  std::get<Conv2dAttrs>(G.node(findNode(G, OpKind::Conv2d)).Attrs).Groups =
      0;
  DiagnosticEngine DE;
  EXPECT_FALSE(verify(G, DE));
  EXPECT_TRUE(DE.hasCode(DiagCode::VerifyBadName));
  EXPECT_TRUE(DE.hasCode(DiagCode::VerifyIllegalAttrs));
  EXPECT_GE(DE.errorCount(), 2u);
}

TEST(VerifierTest, VerifyStringWrapperRendersCodes) {
  Graph G = convGraph();
  G.node(findNode(G, OpKind::Conv2d)).Inputs[0] = 9999;
  const auto Rendered = verify(G);
  ASSERT_TRUE(Rendered.has_value());
  EXPECT_NE(Rendered->find("verify.dangling-value"), std::string::npos);
}

TEST(VerifierTest, EmptyGraphVerifies) {
  // No nodes, no outputs: legal (the serializer round-trips it).
  EXPECT_FALSE(verify(Graph("empty")).has_value());
}
