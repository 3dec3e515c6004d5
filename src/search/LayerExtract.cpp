//===- search/LayerExtract.cpp - Profiling micrograph extraction -*- C++ -*-==//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "search/LayerExtract.h"

#include <unordered_map>

#include "ir/ShapeInference.h"

using namespace pf;

std::vector<NodeId> pf::sampleChain(const Graph &G, NodeId Id) {
  const ValueId Out = G.node(Id).Outputs[0];
  const std::vector<NodeId> &Users = G.consumers(Out);
  if (Users.size() != 1)
    return {Id};
  const Node &U = G.node(Users[0]);
  switch (U.Kind) {
  case OpKind::Relu:
  case OpKind::Relu6:
  case OpKind::Sigmoid:
  case OpKind::SiLU:
  case OpKind::Tanh:
  case OpKind::Gelu:
    if (U.Inputs[0] == Out)
      return {Id, U.Id};
    break;
  default:
    break;
  }
  return {Id};
}

ExtractedGraph pf::extractChain(const Graph &Src,
                                const std::vector<NodeId> &Chain) {
  PF_ASSERT(!Chain.empty(), "extracting an empty chain");
  ExtractedGraph Out;
  Graph &G = Out.G;
  G.setName(Src.name() + ".micro");

  std::unordered_map<ValueId, ValueId> ValueMap;
  std::vector<ValueId> GraphInputs;

  // Non-parameter inputs are staged through a zero-cost GPU-resident
  // Identity node: in the full model the layer's activations live in GPU
  // memory, so an offloaded micrograph must pay the same GPU<->PIM handoff
  // the execution engine would charge in situ.
  auto MapInput = [&](ValueId SrcId) {
    auto It = ValueMap.find(SrcId);
    if (It != ValueMap.end())
      return It->second;
    const Value &V = Src.value(SrcId);
    ValueId NewId;
    if (V.IsParam) {
      NewId = G.addParam(V.Name, V.Shape, V.Type);
    } else {
      ValueId InId = G.addValue(V.Name + ".src", V.Shape, V.Type);
      GraphInputs.push_back(InId);
      NewId = G.addValue(V.Name, V.Shape, V.Type);
      NodeId Stage = G.addNode(OpKind::Identity, V.Name + ".stage",
                               std::monostate{}, {InId}, {NewId});
      G.node(Stage).Dev = Device::Gpu;
    }
    ValueMap.emplace(SrcId, NewId);
    return NewId;
  };

  for (size_t I = 0; I < Chain.size(); ++I) {
    const Node &N = Src.node(Chain[I]);
    PF_ASSERT(!N.Dead, "extracting a dead node");
    std::vector<ValueId> Inputs;
    Inputs.reserve(N.Inputs.size());
    for (size_t J = 0; J < N.Inputs.size(); ++J) {
      if (I > 0 && J == 0) {
        // Chain dataflow edge.
        PF_ASSERT(N.Inputs[0] == Src.node(Chain[I - 1]).Outputs[0],
                  "chain nodes are not connected");
        Inputs.push_back(ValueMap.at(N.Inputs[0]));
        continue;
      }
      Inputs.push_back(MapInput(N.Inputs[J]));
    }
    const Value &OutV = Src.value(N.Outputs[0]);
    ValueId NewOut = G.addValue(OutV.Name, OutV.Shape, OutV.Type);
    ValueMap.emplace(N.Outputs[0], NewOut);
    NodeId NewNode = G.addNode(N.Kind, N.Name, N.Attrs, std::move(Inputs),
                               {NewOut});
    Out.Nodes.push_back(NewNode);
  }

  // Stage the chain output back into GPU memory as well (downstream
  // consumers — activations, pooling — run on the GPU).
  const ValueId ChainOut = ValueMap.at(Src.node(Chain.back()).Outputs[0]);
  ValueId Sink = G.addValue(G.value(ChainOut).Name + ".sink",
                            G.value(ChainOut).Shape, G.value(ChainOut).Type);
  NodeId SinkNode = G.addNode(OpKind::Identity, "sink", std::monostate{},
                              {ChainOut}, {Sink});
  G.node(SinkNode).Dev = Device::Gpu;

  G.setGraphInputs(std::move(GraphInputs));
  G.setGraphOutputs({Sink});
  auto Err = inferShapes(G);
  PF_ASSERT(!Err, "extracted micrograph fails shape inference");
  auto VErr = G.validate();
  PF_ASSERT(!VErr, "extracted micrograph fails validation");
  return Out;
}

ExtractedGraph pf::extractLayer(const Graph &Src, NodeId Id) {
  return extractChain(Src, {Id});
}
