//===- tests/ir/SerializerTest.cpp - graph save/load tests ------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/GraphSerializer.h"

#include <cstdio>
#include <filesystem>
#include <gtest/gtest.h>

#include "core/PimFlow.h"
#include "ir/Builder.h"
#include "models/Zoo.h"
#include "runtime/Interpreter.h"

using namespace pf;

namespace {

Graph roundTrip(const Graph &G) {
  auto Result = parseGraph(serializeGraph(G));
  EXPECT_TRUE(std::holds_alternative<Graph>(Result))
      << std::get<std::string>(Result);
  return std::get<Graph>(std::move(Result));
}

void expectStructurallyEqual(const Graph &A, const Graph &B) {
  ASSERT_EQ(A.numNodes(), B.numNodes());
  ASSERT_EQ(A.graphInputs().size(), B.graphInputs().size());
  ASSERT_EQ(A.graphOutputs().size(), B.graphOutputs().size());
  const auto OA = A.topoOrder();
  const auto OB = B.topoOrder();
  for (size_t I = 0; I < OA.size(); ++I) {
    const Node &NA = A.node(OA[I]);
    const Node &NB = B.node(OB[I]);
    EXPECT_EQ(NA.Kind, NB.Kind);
    EXPECT_EQ(NA.Name, NB.Name);
    EXPECT_EQ(NA.Dev, NB.Dev);
    EXPECT_EQ(NA.Attrs, NB.Attrs);
    ASSERT_EQ(NA.Inputs.size(), NB.Inputs.size());
    for (size_t J = 0; J < NA.Inputs.size(); ++J) {
      EXPECT_EQ(A.value(NA.Inputs[J]).Shape, B.value(NB.Inputs[J]).Shape);
      EXPECT_EQ(A.value(NA.Inputs[J]).IsParam,
                B.value(NB.Inputs[J]).IsParam);
    }
    EXPECT_EQ(A.value(NA.Outputs[0]).Shape, B.value(NB.Outputs[0]).Shape);
  }
}

void expectFunctionallyEqual(const Graph &A, const Graph &B,
                             uint64_t Seed) {
  std::vector<Tensor> InA, InB;
  for (ValueId In : A.graphInputs())
    InA.push_back(Interpreter::randomInput(A.value(In).Shape, Seed));
  for (ValueId In : B.graphInputs())
    InB.push_back(Interpreter::randomInput(B.value(In).Shape, Seed));
  auto OutA = Interpreter(A).run(InA);
  auto OutB = Interpreter(B).run(InB);
  ASSERT_EQ(OutA.size(), OutB.size());
  for (size_t I = 0; I < OutA.size(); ++I)
    for (int64_t E = 0; E < OutA[I].numElements(); ++E)
      ASSERT_EQ(OutA[I].at(E), OutB[I].at(E));
}

} // namespace

TEST(SerializerTest, ToyRoundTrip) {
  Graph G = buildToy();
  Graph R = roundTrip(G);
  EXPECT_EQ(R.name(), "toy");
  expectStructurallyEqual(G, R);
  // Param seeds are serialized, so weights — and therefore outputs —
  // survive the trip exactly.
  expectFunctionallyEqual(G, R, 31);
}

class SerializerModelTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SerializerModelTest, ZooRoundTrip) {
  Graph G = buildModel(GetParam());
  Graph R = roundTrip(G);
  expectStructurallyEqual(G, R);
  // Double round trip is byte-stable.
  EXPECT_EQ(serializeGraph(R), serializeGraph(roundTrip(R)));
}

INSTANTIATE_TEST_SUITE_P(AllModels, SerializerModelTest,
                         ::testing::ValuesIn(modelNames()),
                         [](const auto &Info) {
                           std::string N = Info.param;
                           for (char &C : N)
                             if (!isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return N;
                         });

TEST(SerializerTest, TransformedGraphRoundTrip) {
  // Device annotations and transform-inserted nodes survive.
  Graph Model = buildToy();
  CompileResult R = PimFlow(OffloadPolicy::PimFlow).compileAndRun(Model);
  Graph Loaded = roundTrip(R.Transformed);
  expectStructurallyEqual(R.Transformed, Loaded);
  int PimNodes = 0;
  for (const Node &N : Loaded.nodes())
    PimNodes += !N.Dead && N.Dev == Device::Pim;
  EXPECT_GT(PimNodes, 0);
  expectFunctionallyEqual(R.Transformed, Loaded, 87);
}

TEST(SerializerTest, SaveLoadFile) {
  const std::string Path = ::testing::TempDir() + "pf_graph_test.graph";
  Graph G = buildToy();
  ASSERT_TRUE(saveGraph(G, Path));
  std::string Error;
  auto Loaded = loadGraph(Path, &Error);
  ASSERT_TRUE(Loaded.has_value()) << Error;
  expectStructurallyEqual(G, *Loaded);
  std::remove(Path.c_str());
}

// A buffered write to a full device succeeds and only the flush at close
// fails, so a save that ignores fclose reports success.
TEST(SerializerTest, SaveToFullDeviceFails) {
  if (!std::filesystem::exists("/dev/full"))
    GTEST_SKIP() << "no /dev/full on this host";
  EXPECT_FALSE(saveGraph(buildToy(), "/dev/full"));
}

TEST(SerializerTest, MissingFileReportsError) {
  std::string Error;
  EXPECT_FALSE(loadGraph("/nonexistent/path.graph", &Error).has_value());
  EXPECT_FALSE(Error.empty());
}

TEST(SerializerTest, RejectsGarbage) {
  auto R = parseGraph("not a graph at all");
  ASSERT_TRUE(std::holds_alternative<std::string>(R));
}

TEST(SerializerTest, RejectsDanglingValueReference) {
  const std::string Text = "pimflow-graph v1 bad\n"
                           "value 0 x f16 flow 1 2 2 1\n"
                           "node 0 relu r any inputs 7 outputs 0\n"
                           "inputs 0\noutputs 0\nend\n";
  auto R = parseGraph(Text);
  ASSERT_TRUE(std::holds_alternative<std::string>(R));
  EXPECT_NE(std::get<std::string>(R).find("out of range"),
            std::string::npos);
}

TEST(SerializerTest, RejectsUnknownOp) {
  const std::string Text = "pimflow-graph v1 bad\n"
                           "value 0 x f16 flow 4\n"
                           "value 1 y f16 flow 4\n"
                           "node 0 frobnicate f any inputs 0 outputs 1\n"
                           "inputs 0\noutputs 1\nend\n";
  auto R = parseGraph(Text);
  ASSERT_TRUE(std::holds_alternative<std::string>(R));
  EXPECT_NE(std::get<std::string>(R).find("unknown op"),
            std::string::npos);
}

TEST(SerializerTest, RejectsInvalidParsedGraph) {
  // Structurally parseable but no producer for the output.
  const std::string Text = "pimflow-graph v1 bad\n"
                           "value 0 x f16 flow 4\n"
                           "value 1 y f16 flow 4\n"
                           "inputs 0\noutputs 1\nend\n";
  auto R = parseGraph(Text);
  ASSERT_TRUE(std::holds_alternative<std::string>(R));
}

//===----------------------------------------------------------------------===
// Boundary round trips
//===----------------------------------------------------------------------===

TEST(SerializerTest, EmptyGraphRoundTrip) {
  Graph R = roundTrip(Graph("empty"));
  EXPECT_EQ(R.name(), "empty");
  EXPECT_EQ(R.numNodes(), 0u);
  EXPECT_TRUE(R.graphInputs().empty());
  EXPECT_TRUE(R.graphOutputs().empty());
}

TEST(SerializerTest, SingleNodeGraphRoundTrip) {
  GraphBuilder B("one");
  B.output(B.relu(B.input("x", TensorShape{1, 4, 4, 2})));
  Graph G = B.take();
  Graph R = roundTrip(G);
  expectStructurallyEqual(G, R);
  expectFunctionallyEqual(G, R, 5);
}

TEST(SerializerTest, NamesAtTheNoSpaceBoundary) {
  // The format is space-delimited: any space-free name must survive,
  // including punctuation the transforms generate ('.', '/', '=').
  GraphBuilder B("weird.names");
  ValueId X = B.input("in/put.0", TensorShape{1, 4, 4, 2});
  B.output(B.relu(X));
  Graph G = B.take();
  G.node(G.producer(G.graphOutputs()[0])).Name = "relu.part0=odd";
  Graph R = roundTrip(G);
  EXPECT_EQ(R.name(), "weird.names");
  EXPECT_EQ(R.value(R.graphInputs()[0]).Name, "in/put.0");
  EXPECT_EQ(R.node(R.producer(R.graphOutputs()[0])).Name,
            "relu.part0=odd");
}

//===----------------------------------------------------------------------===
// Malformed inputs: diagnostics, not crashes or silent truncation
//===----------------------------------------------------------------------===

namespace {

/// Expects parseGraph(Text) to fail with \p Fragment in the message.
void expectParseError(const std::string &Text, const std::string &Fragment) {
  auto R = parseGraph(Text);
  ASSERT_TRUE(std::holds_alternative<Graph>(R) == false)
      << "accepted: " << Text;
  EXPECT_NE(std::get<std::string>(R).find(Fragment), std::string::npos)
      << "got: " << std::get<std::string>(R);
}

} // namespace

TEST(SerializerTest, RejectsNonIntegerValueId) {
  expectParseError("pimflow-graph v1 g\n"
                   "value zero x f16 flow 4\n"
                   "end\n",
                   "is not an integer");
}

TEST(SerializerTest, RejectsNonIntegerShapeExtent) {
  // atoi-style parsing used to read "4x" as 4.
  expectParseError("pimflow-graph v1 g\n"
                   "value 0 x f16 flow 4x\n"
                   "end\n",
                   "shape extent '4x'");
}

TEST(SerializerTest, RejectsNonPositiveShapeExtent) {
  expectParseError("pimflow-graph v1 g\n"
                   "value 0 x f16 flow 0\n"
                   "end\n",
                   "shape extent '0'");
}

TEST(SerializerTest, RejectsJunkParamSeed) {
  expectParseError("pimflow-graph v1 g\n"
                   "value 0 w f16 param seed7 4\n"
                   "end\n",
                   "init seed 'seed7'");
}

TEST(SerializerTest, RejectsNonIntegerNodeOperand) {
  // atoll("junk") == 0 used to silently wire the node to value 0.
  expectParseError("pimflow-graph v1 g\n"
                   "value 0 x f16 flow 4\n"
                   "value 1 y f16 flow 4\n"
                   "node 0 relu r any inputs junk outputs 1\n"
                   "inputs 0\noutputs 1\nend\n",
                   "input value id 'junk'");
}

TEST(SerializerTest, RejectsNonIntegerAttrValue) {
  expectParseError("pimflow-graph v1 g\n"
                   "value 0 x f16 flow 1 4 4 2\n"
                   "value 1 w f16 param 9 3 3 2 4\n"
                   "value 2 y f16 flow 1 4 4 4\n"
                   "node 0 conv2d c any inputs 0 1 outputs 2 kh=3x kw=3\n"
                   "inputs 0\noutputs 2\nend\n",
                   "attribute kh value '3x'");
}

TEST(SerializerTest, RejectsNonNumericEpsilon) {
  expectParseError("pimflow-graph v1 g\n"
                   "value 0 x f16 flow 1 4 4 2\n"
                   "value 1 y f16 flow 1 4 4 2\n"
                   "node 0 batchnorm b any inputs 0 outputs 1 eps=tiny\n"
                   "inputs 0\noutputs 1\nend\n",
                   "attribute eps value 'tiny'");
}

TEST(SerializerTest, RejectsNonFiniteOrHexEpsilon) {
  // A serialized one-BatchNorm graph with its eps token swapped: the
  // number grammar is parseDouble's, and the value must be a finite float.
  GraphBuilder B("bn");
  B.output(B.batchNorm(B.input("x", TensorShape{1, 4, 4, 2})));
  const Graph G = B.take();
  const std::string Good = serializeGraph(G);
  const size_t At = Good.find(" eps=");
  ASSERT_NE(At, std::string::npos);
  const size_t End = Good.find('\n', At);
  for (const char *Eps : {"nan", "inf", "-inf", "0x1p-10", "1e300"}) {
    SCOPED_TRACE(Eps);
    std::string Text = Good;
    Text.replace(At, End - At, std::string(" eps=") + Eps);
    expectParseError(Text, std::string("attribute eps value '") + Eps + "'");
  }
  // The writer's own token still reads back bit for bit.
  const Graph R = roundTrip(G);
  const NodeId Bn = R.producer(R.graphOutputs()[0]);
  EXPECT_EQ(std::get<BatchNormAttrs>(R.node(Bn).Attrs).Epsilon,
            BatchNormAttrs{}.Epsilon);
}

TEST(SerializerTest, RejectsNonIntegerInterfaceId) {
  expectParseError("pimflow-graph v1 g\n"
                   "value 0 x f16 flow 4\n"
                   "inputs first\noutputs 0\nend\n",
                   "graph interface value id 'first'");
}

TEST(SerializerTest, MalformedInputsNeverCrash) {
  // Truncations and permutations of a valid serialization must all
  // produce a parse error or a valid graph — never a crash.
  GraphBuilder B("t");
  B.output(B.relu(B.input("x", TensorShape{1, 4, 4, 2})));
  const std::string Good = serializeGraph(B.take());
  for (size_t Cut = 0; Cut < Good.size(); Cut += 3) {
    auto R = parseGraph(Good.substr(0, Cut));
    if (std::holds_alternative<Graph>(R)) {
      EXPECT_FALSE(std::get<Graph>(R).validate().has_value());
    }
  }
}
