//===- tests/ir/GraphIndexTest.cpp - def-use index vs. scans ----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the Graph's def-use lists and its Kahn order against the scanning
/// algorithms they replaced. The oracles below are verbatim copies of the
/// old scanning `consumers()` and deque-based `tryTopoOrder()`; every zoo
/// model, every paper model materialized under each policy, and seeded
/// edit sequences (duplicate inputs, multi-output nodes, removals, use
/// rewrites, cycles) must agree with them value for value and node for
/// node.
///
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <deque>
#include <string>

#include <gtest/gtest.h>

#include "core/PimFlow.h"
#include "ir/Graph.h"
#include "models/Zoo.h"
#include "support/Format.h"
#include "support/Random.h"

using namespace pf;

namespace {

/// Oracle: live nodes reading \p Id, each once, in node-id order.
std::vector<NodeId> scanConsumers(const Graph &G, ValueId Id) {
  std::vector<NodeId> Out;
  for (const Node &N : G.nodes()) {
    if (N.Dead)
      continue;
    for (ValueId In : N.Inputs)
      if (In == Id) {
        Out.push_back(N.Id);
        break;
      }
  }
  return Out;
}

/// Oracle: the number of live nodes.
size_t scanLiveNodes(const Graph &G) {
  size_t Count = 0;
  for (const Node &N : G.nodes())
    if (!N.Dead)
      ++Count;
  return Count;
}

/// Oracle: Kahn's algorithm with a per-call consumer index (one entry per
/// input slot) and a deque, seeded in node-id order. Cyclic graphs yield
/// the schedulable prefix.
std::vector<NodeId> dequeKahn(const Graph &G) {
  const std::vector<Node> &Nodes = G.nodes();
  std::vector<int> PendingInputs(Nodes.size(), 0);
  std::vector<std::vector<NodeId>> ValueConsumers(G.numValues());
  std::deque<NodeId> Ready;
  size_t LiveCount = 0;

  for (const Node &N : Nodes) {
    if (N.Dead)
      continue;
    ++LiveCount;
    int Pending = 0;
    for (ValueId In : N.Inputs) {
      if (G.producer(In) == InvalidNode)
        continue;
      ++Pending;
      ValueConsumers[static_cast<size_t>(In)].push_back(N.Id);
    }
    PendingInputs[static_cast<size_t>(N.Id)] = Pending;
    if (Pending == 0)
      Ready.push_back(N.Id);
  }

  std::vector<NodeId> Order;
  Order.reserve(LiveCount);
  while (!Ready.empty()) {
    NodeId Id = Ready.front();
    Ready.pop_front();
    Order.push_back(Id);
    for (ValueId Out : G.node(Id).Outputs)
      for (NodeId Consumer : ValueConsumers[static_cast<size_t>(Out)])
        if (--PendingInputs[static_cast<size_t>(Consumer)] == 0)
          Ready.push_back(Consumer);
  }
  return Order;
}

/// Oracle: the input slots of live nodes reading \p Id.
int scanUses(const Graph &G, ValueId Id) {
  int Uses = 0;
  for (const Node &N : G.nodes())
    if (!N.Dead)
      for (ValueId In : N.Inputs)
        Uses += In == Id ? 1 : 0;
  return Uses;
}

/// Every index read of \p G equals its oracle.
void expectMatchesScans(const Graph &G) {
  EXPECT_EQ(G.numNodes(), scanLiveNodes(G));
  for (size_t V = 0; V < G.numValues(); ++V) {
    const ValueId Id = static_cast<ValueId>(V);
    EXPECT_EQ(G.consumers(Id), scanConsumers(G, Id)) << "value #" << V;
  }
  EXPECT_EQ(G.tryTopoOrder(), dequeKahn(G));
}

/// Every model buildModel() accepts.
std::vector<std::string> zooNames() {
  std::vector<std::string> Names = modelNames();
  for (const std::string &Extra : extraModelNames())
    Names.push_back(Extra);
  for (int V = 1; V <= 6; ++V)
    Names.push_back(formatStr("efficientnet-v1-b%d", V));
  Names.push_back("bert");
  Names.push_back("toy");
  return Names;
}

} // namespace

TEST(GraphIndex, ZooModelsMatchScans) {
  for (const std::string &Name : zooNames()) {
    SCOPED_TRACE(Name);
    expectMatchesScans(buildModel(Name));
  }
}

TEST(GraphIndex, MaterializedPaperModelsMatchScans) {
  // Materialized graphs carry dead nodes, split halves, pipeline stages
  // and canonicalized uses: the edits the passes make.
  for (const std::string &Name : modelNames()) {
    const Graph Model = buildModel(Name);
    for (OffloadPolicy P : allPolicies()) {
      SCOPED_TRACE(Name + " / " + policyName(P));
      PimFlow Flow(P);
      const Graph G = Flow.materialize(Model, Flow.plan(Model));
      expectMatchesScans(G);
    }
  }
}

namespace {

/// One seeded edit sequence over a raw graph of identity nodes (no shapes
/// are inferred, so any wiring goes): nodes read up to three values drawn
/// with replacement (duplicate reads) and write one to three fresh or
/// orphaned values (multi-output nodes); removals, use rewrites and slot
/// rewrites follow, and the last two may close cycles. The index must
/// equal the scans after every edit. Returns how many edits left the graph
/// cyclic.
int runEdits(uint64_t Seed) {
  Rng R(Seed);
  Graph G("edits");
  auto AnyValue = [&] {
    return static_cast<ValueId>(R.nextBelow(G.numValues()));
  };
  auto AnyLiveNode = [&]() -> NodeId {
    if (G.numNodes() == 0)
      return InvalidNode;
    size_t Skip = R.nextBelow(G.numNodes());
    for (const Node &N : G.nodes())
      if (!N.Dead && Skip-- == 0)
        return N.Id;
    return InvalidNode;
  };
  for (int I = 0; I < 3; ++I)
    G.addValue(formatStr("in%d", I), TensorShape{1});
  G.setGraphInputs({0, 1, 2});

  int Cyclic = 0;
  for (int Step = 0; Step < 80; ++Step) {
    switch (R.nextBelow(6)) {
    case 0:
    case 1:
    case 2: {
      std::vector<ValueId> Ins;
      for (uint64_t K = 1 + R.nextBelow(3); K > 0; --K)
        Ins.push_back(AnyValue());
      std::vector<ValueId> Outs;
      for (uint64_t K = 1 + R.nextBelow(3); K > 0; --K) {
        // Re-use a removed node's output now and then.
        ValueId Out = AnyValue();
        if (G.producer(Out) != InvalidNode || Out < 3 ||
            std::find(Outs.begin(), Outs.end(), Out) != Outs.end() ||
            R.nextBelow(2) == 0)
          Out = G.addValue(formatStr("v%zu", G.numValues()),
                           TensorShape{1});
        Outs.push_back(Out);
      }
      G.addNode(OpKind::Identity,
                formatStr("n%zu", G.numNodesIncludingDead()),
                std::monostate{}, std::move(Ins), std::move(Outs));
      break;
    }
    case 3:
      if (const NodeId Id = AnyLiveNode(); Id != InvalidNode)
        G.removeNode(Id);
      break;
    case 4: {
      const ValueId From = AnyValue(), To = AnyValue();
      const int Uses = scanUses(G, From);
      EXPECT_EQ(G.replaceUses(From, To), Uses);
      EXPECT_EQ(scanUses(G, From), From == To ? Uses : 0);
      break;
    }
    case 5:
      if (const NodeId Id = AnyLiveNode(); Id != InvalidNode)
        G.setInput(Id, R.nextBelow(G.node(Id).Inputs.size()), AnyValue());
      break;
    }
    SCOPED_TRACE(testing::Message() << "after edit " << Step);
    expectMatchesScans(G);
    Cyclic += G.tryTopoOrder().size() != G.numNodes() ? 1 : 0;
  }
  // A copy carries the index with it.
  expectMatchesScans(Graph(G));
  return Cyclic;
}

} // namespace

TEST(GraphIndex, SeededEditSequencesMatchScans) {
  int Cyclic = 0;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    SCOPED_TRACE(testing::Message() << "seed " << Seed);
    Cyclic += runEdits(Seed);
  }
  // The partial orders of cyclic graphs were compared too.
  EXPECT_GT(Cyclic, 0);
}

TEST(GraphIndex, DuplicateReadsAreListedOnceAndReleasedOnce) {
  Graph G("dup");
  const ValueId X = G.addValue("x", TensorShape{1});
  const ValueId A = G.addValue("a", TensorShape{1});
  const ValueId B = G.addValue("b", TensorShape{1});
  const ValueId C = G.addValue("c", TensorShape{1});
  G.setGraphInputs({X});
  const NodeId Split = G.addNode(OpKind::Identity, "split", std::monostate{},
                                 {X}, {A, B});
  const NodeId Add = G.addNode(OpKind::Add, "add", std::monostate{},
                               {A, A, B}, {C});
  G.setGraphOutputs({C});
  EXPECT_EQ(G.consumers(A), std::vector<NodeId>{Add});
  EXPECT_EQ(G.tryTopoOrder(), (std::vector<NodeId>{Split, Add}));

  // Rewriting one of two reads keeps the node listed; the second drops it.
  G.setInput(Add, 0, B);
  EXPECT_EQ(G.consumers(A), std::vector<NodeId>{Add});
  G.setInput(Add, 1, B);
  EXPECT_TRUE(G.consumers(A).empty());
  EXPECT_EQ(G.consumers(B), std::vector<NodeId>{Add});
  EXPECT_EQ(G.replaceUses(B, A), 3);
  EXPECT_EQ(G.consumers(A), std::vector<NodeId>{Add});
  EXPECT_TRUE(G.consumers(B).empty());
  expectMatchesScans(G);
}
