//===- ir/Graph.cpp - Model computation graph -------------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Graph.h"

#include <algorithm>

#include "support/Format.h"

using namespace pf;

namespace {

/// Inserts \p Id into the sorted \p List unless it is already there.
void insertSorted(std::vector<NodeId> &List, NodeId Id) {
  auto It = std::lower_bound(List.begin(), List.end(), Id);
  if (It == List.end() || *It != Id)
    List.insert(It, Id);
}

/// Erases \p Id from the sorted \p List if it is there.
void eraseSorted(std::vector<NodeId> &List, NodeId Id) {
  auto It = std::lower_bound(List.begin(), List.end(), Id);
  if (It != List.end() && *It == Id)
    List.erase(It);
}

} // namespace

const char *pf::deviceName(Device Dev) {
  switch (Dev) {
  case Device::Any:
    return "any";
  case Device::Gpu:
    return "gpu";
  case Device::Pim:
    return "pim";
  }
  pf_unreachable("unknown device");
}

const char *pf::opKindName(OpKind Kind) {
  switch (Kind) {
  case OpKind::Input:
    return "input";
  case OpKind::Conv2d:
    return "conv2d";
  case OpKind::Gemm:
    return "gemm";
  case OpKind::Relu:
    return "relu";
  case OpKind::Relu6:
    return "relu6";
  case OpKind::Sigmoid:
    return "sigmoid";
  case OpKind::SiLU:
    return "silu";
  case OpKind::Tanh:
    return "tanh";
  case OpKind::Gelu:
    return "gelu";
  case OpKind::Softmax:
    return "softmax";
  case OpKind::Add:
    return "add";
  case OpKind::Mul:
    return "mul";
  case OpKind::BatchNorm:
    return "batchnorm";
  case OpKind::MaxPool:
    return "maxpool";
  case OpKind::AvgPool:
    return "avgpool";
  case OpKind::GlobalAvgPool:
    return "globalavgpool";
  case OpKind::Pad:
    return "pad";
  case OpKind::Slice:
    return "slice";
  case OpKind::Concat:
    return "concat";
  case OpKind::Flatten:
    return "flatten";
  case OpKind::Identity:
    return "identity";
  case OpKind::LayerNorm:
    return "layernorm";
  case OpKind::MatMul:
    return "matmul";
  }
  pf_unreachable("unknown op kind");
}

bool pf::isDepthwiseConv(const Node &N) {
  return N.Kind == OpKind::Conv2d && N.conv().Groups > 1;
}

bool pf::isPimCandidate(const Node &N) {
  if (N.Kind == OpKind::Gemm)
    return true;
  return N.Kind == OpKind::Conv2d && !isDepthwiseConv(N);
}

ValueId Graph::addValue(const std::string &Name, TensorShape Shape,
                        DataType Type) {
  Value V;
  V.Id = static_cast<ValueId>(Values.size());
  V.Name = Name;
  V.Shape = std::move(Shape);
  V.Type = Type;
  Values.push_back(std::move(V));
  ProducerOf.push_back(InvalidNode);
  ConsumersOf.emplace_back();
  return Values.back().Id;
}

ValueId Graph::addParam(const std::string &Name, TensorShape Shape,
                        DataType Type) {
  ValueId Id = addValue(Name, std::move(Shape), Type);
  Value &V = value(Id);
  V.IsParam = true;
  // Seed derived from the id so parameter data is deterministic but distinct
  // per parameter.
  V.InitSeed = 0x5DEECE66Dull ^ (static_cast<uint64_t>(Id) * 0x2545F4914F6CDD1Dull);
  return Id;
}

NodeId Graph::addNode(OpKind Kind, const std::string &Name, OpAttrs Attrs,
                      std::vector<ValueId> NodeInputs,
                      std::vector<ValueId> NodeOutputs) {
  for (ValueId In : NodeInputs)
    PF_ASSERT(In >= 0 && static_cast<size_t>(In) < Values.size(),
              "node input value does not exist");
  for (ValueId Out : NodeOutputs) {
    PF_ASSERT(Out >= 0 && static_cast<size_t>(Out) < Values.size(),
              "node output value does not exist");
    PF_ASSERT(ProducerOf[static_cast<size_t>(Out)] == InvalidNode,
              "node output already has a producer");
    PF_ASSERT(!value(Out).IsParam, "parameters cannot be node outputs");
  }

  Node N;
  N.Id = static_cast<NodeId>(Nodes.size());
  N.Name = Name;
  N.Kind = Kind;
  N.Attrs = std::move(Attrs);
  N.Inputs = std::move(NodeInputs);
  N.Outputs = std::move(NodeOutputs);
  for (ValueId Out : N.Outputs)
    ProducerOf[static_cast<size_t>(Out)] = N.Id;
  for (ValueId In : N.Inputs) {
    // The new node has the largest id, so appending keeps each list
    // sorted, and a list it already ends is a value it reads twice.
    std::vector<NodeId> &Users = ConsumersOf[static_cast<size_t>(In)];
    if (Users.empty() || Users.back() != N.Id)
      Users.push_back(N.Id);
  }
  ++LiveNodes;
  Nodes.push_back(std::move(N));
  return Nodes.back().Id;
}

void Graph::removeNode(NodeId Id) {
  Node &N = node(Id);
  PF_ASSERT(!N.Dead, "node already removed");
  N.Dead = true;
  for (ValueId Out : N.Outputs)
    ProducerOf[static_cast<size_t>(Out)] = InvalidNode;
  for (ValueId In : N.Inputs)
    eraseSorted(ConsumersOf[static_cast<size_t>(In)], Id);
  --LiveNodes;
}

int Graph::replaceUses(ValueId From, ValueId To) {
  PF_ASSERT(From >= 0 && static_cast<size_t>(From) < Values.size() &&
                To >= 0 && static_cast<size_t>(To) < Values.size(),
            "value id out of range");
  std::vector<NodeId> &FromUsers = ConsumersOf[static_cast<size_t>(From)];
  const std::vector<NodeId> Users = std::move(FromUsers);
  FromUsers.clear();
  int Rewritten = 0;
  for (NodeId Id : Users) {
    for (ValueId &In : Nodes[static_cast<size_t>(Id)].Inputs)
      if (In == From) {
        In = To;
        ++Rewritten;
      }
    insertSorted(ConsumersOf[static_cast<size_t>(To)], Id);
  }
  return Rewritten;
}

void Graph::setInput(NodeId Id, size_t Slot, ValueId V) {
  Node &N = node(Id);
  PF_ASSERT(Slot < N.Inputs.size(), "input slot out of range");
  PF_ASSERT(V >= 0 && static_cast<size_t>(V) < Values.size(),
            "input value does not exist");
  const ValueId Old = N.Inputs[Slot];
  N.Inputs[Slot] = V;
  if (N.Dead)
    return;
  if (std::find(N.Inputs.begin(), N.Inputs.end(), Old) == N.Inputs.end())
    eraseSorted(ConsumersOf[static_cast<size_t>(Old)], Id);
  insertSorted(ConsumersOf[static_cast<size_t>(V)], Id);
}

NodeId Graph::producer(ValueId Id) const {
  PF_ASSERT(Id >= 0 && static_cast<size_t>(Id) < ProducerOf.size(),
            "value id out of range");
  return ProducerOf[static_cast<size_t>(Id)];
}

std::vector<NodeId> Graph::topoOrder() const {
  std::vector<NodeId> Order = tryTopoOrder();
  PF_ASSERT(Order.size() == numNodes(), "graph contains a dataflow cycle");
  return Order;
}

std::vector<NodeId> Graph::tryTopoOrder() const {
  // Kahn's algorithm over the def-use lists: a node is ready once each
  // distinct input with a producer has been produced. The FIFO is seeded
  // in node-id order, and Order doubles as it: Order[Head..] are the ready
  // nodes not yet expanded.
  std::vector<int> Pending(Nodes.size(), 0);
  std::vector<NodeId> Order;
  Order.reserve(LiveNodes);
  for (const Node &N : Nodes) {
    if (N.Dead)
      continue;
    int Produced = 0;
    for (auto In = N.Inputs.begin(); In != N.Inputs.end(); ++In)
      if (producer(*In) != InvalidNode &&
          std::find(N.Inputs.begin(), In, *In) == In)
        ++Produced;
    Pending[static_cast<size_t>(N.Id)] = Produced;
    if (Produced == 0)
      Order.push_back(N.Id);
  }
  for (size_t Head = 0; Head < Order.size(); ++Head)
    for (ValueId Out : node(Order[Head]).Outputs)
      for (NodeId Consumer : ConsumersOf[static_cast<size_t>(Out)])
        if (--Pending[static_cast<size_t>(Consumer)] == 0)
          Order.push_back(Consumer);
  // Cyclic dependency sets never become ready; the order is partial and
  // the caller decides how to fail (topoOrder asserts, the execution
  // engine and validate() diagnose).
  return Order;
}

std::optional<std::string> Graph::validate() const {
  for (const Node &N : Nodes) {
    if (N.Dead)
      continue;
    if (N.Outputs.empty())
      return formatStr("node '%s' has no outputs", N.Name.c_str());
    for (ValueId In : N.Inputs) {
      const Value &V = value(In);
      bool IsGraphInput = false;
      for (ValueId GIn : Inputs)
        IsGraphInput |= (GIn == In);
      if (!V.IsParam && !IsGraphInput && producer(In) == InvalidNode)
        return formatStr("node '%s' consumes value '%s' with no producer",
                         N.Name.c_str(), V.Name.c_str());
    }
  }
  for (ValueId Out : Outputs)
    if (producer(Out) == InvalidNode)
      return formatStr("graph output '%s' is never produced",
                       value(Out).Name.c_str());
  // A completely empty graph is legal (it round-trips through the
  // serializer); live nodes with no graph outputs are not.
  if (Outputs.empty() && numNodes() > 0)
    return std::string("graph has no outputs");
  // Run the toposort to check acyclicity without tripping topoOrder's
  // must-be-acyclic assertion.
  if (tryTopoOrder().size() != numNodes())
    return std::string("graph contains a dataflow cycle");
  return std::nullopt;
}

void Graph::setParamData(ValueId Id, Tensor Data) {
  PF_ASSERT(value(Id).IsParam, "setParamData on a non-parameter value");
  PF_ASSERT(Data.shape() == value(Id).Shape,
            "explicit parameter data shape mismatch");
  ExplicitParamData[Id] = std::move(Data);
}

const Tensor *Graph::paramData(ValueId Id) const {
  auto It = ExplicitParamData.find(Id);
  return It == ExplicitParamData.end() ? nullptr : &It->second;
}
