//===- ir/Graph.h - Model computation graph ---------------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The computation-graph IR that the PIMFlow passes transform. A Graph owns
/// Values (tensors flowing between nodes, plus weight parameters) and Nodes
/// (operator applications). It plays the role of the ONNX ModelProto in the
/// original artifact: the transformation passes, the search engine, and the
/// DRAM-PIM back-end all operate on this representation.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_IR_GRAPH_H
#define PIMFLOW_IR_GRAPH_H

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/Ops.h"
#include "ir/Tensor.h"

namespace pf {

using ValueId = int32_t;
using NodeId = int32_t;
inline constexpr NodeId InvalidNode = -1;
inline constexpr ValueId InvalidValue = -1;

/// The device a node is assigned to execute on. `Any` means the placement
/// decision has not been made (pre-search graphs).
enum class Device : uint8_t {
  Any,
  Gpu,
  Pim,
};

/// Returns "any"/"gpu"/"pim".
const char *deviceName(Device Dev);

/// A tensor flowing through the graph, or a weight parameter.
struct Value {
  ValueId Id = InvalidValue;
  std::string Name;
  TensorShape Shape;
  DataType Type = DataType::F16;
  /// True for weight/bias parameters (graph-constant inputs).
  bool IsParam = false;
  /// Seed used to deterministically materialize parameter data on demand.
  uint64_t InitSeed = 0;

  int64_t byteCount() const { return Shape.numElements() * byteSize(Type); }
};

/// One operator application.
struct Node {
  NodeId Id = InvalidNode;
  std::string Name;
  OpKind Kind = OpKind::Identity;
  OpAttrs Attrs;
  std::vector<ValueId> Inputs;
  std::vector<ValueId> Outputs;
  /// Placement annotation; set by the search / transformation passes.
  Device Dev = Device::Any;
  bool Dead = false;

  const Conv2dAttrs &conv() const {
    PF_ASSERT(Kind == OpKind::Conv2d, "not a conv node");
    return std::get<Conv2dAttrs>(Attrs);
  }
  const GemmAttrs &gemm() const {
    PF_ASSERT(Kind == OpKind::Gemm, "not a gemm node");
    return std::get<GemmAttrs>(Attrs);
  }
};

/// A node as the cost forms read it (ir/Metrics, gpu/GpuModel,
/// codegen/PimKernelSpec, codegen/MemoryOptimizer and the execution
/// engine's per-node durations): its kind, attributes and operand values,
/// with no graph around it. The profiler prices nodes it never builds
/// through these shape-level forms; each form's Graph overload describes a
/// graph node with GraphNodeView and calls it.
struct NodeView {
  OpKind Kind = OpKind::Identity;
  const OpAttrs *Attrs = nullptr;
  std::span<const Value *const> Inputs;
  std::span<const Value *const> Outputs;

  const Value &input(size_t I) const {
    PF_ASSERT(I < Inputs.size(), "node view input out of range");
    return *Inputs[I];
  }
  const Value &output() const {
    PF_ASSERT(!Outputs.empty(), "node view has no output");
    return *Outputs[0];
  }
  const Conv2dAttrs &conv() const { return std::get<Conv2dAttrs>(*Attrs); }
};

/// Returns true if \p N is a PIM-offload candidate per the paper's rule:
/// FC (Gemm) layers and all CONV layers except depthwise (grouped) ones.
bool isPimCandidate(const Node &N);

/// Returns true for depthwise (grouped) convolutions, which stay on GPU.
bool isDepthwiseConv(const Node &N);

/// A computation graph: an SSA-ish dataflow of Nodes over Values.
///
/// Values are single-assignment: every non-input, non-parameter value has
/// exactly one producing node. Nodes are stored in insertion order and may
/// be marked dead by passes; topoOrder() yields a topologically sorted view
/// of the live nodes.
///
/// The graph owns its def-use index: each value's live consumers and the
/// live-node count, kept current by every mutator below. Writing a node's
/// Inputs or Dead flag through node() bypasses it; verify() reports the
/// result as verify.stale-index.
///
/// It also keeps its content digest (contentDigest()) once computed. Every
/// mutator and the non-const node() and value() drop it, and a copy keeps
/// its source's.
class Graph {
public:
  explicit Graph(std::string Name = "graph") : Name(std::move(Name)) {}

  const std::string &name() const { return Name; }
  void setName(std::string N) {
    Digest.reset();
    Name = std::move(N);
  }

  /// Creates a flowing (activation) value.
  ValueId addValue(const std::string &Name, TensorShape Shape,
                   DataType Type = DataType::F16);

  /// Creates a weight parameter value with a deterministic init seed.
  ValueId addParam(const std::string &Name, TensorShape Shape,
                   DataType Type = DataType::F16);

  /// Appends a node. All input/output value ids must already exist, and
  /// each output must not have a producer yet.
  NodeId addNode(OpKind Kind, const std::string &Name, OpAttrs Attrs,
                 std::vector<ValueId> Inputs, std::vector<ValueId> Outputs);

  /// Marks a node dead. Its outputs lose their producer and may be re-used
  /// as outputs of a replacement node.
  void removeNode(NodeId Id);

  /// Rewrites every live node input equal to \p From to \p To. Returns the
  /// number of input slots rewritten.
  int replaceUses(ValueId From, ValueId To);

  /// Rewrites input slot \p Slot of node \p Id to \p V. Unlike the other
  /// mutators it may build malformed graphs (cycles, uses with no
  /// producer), which the diagnostics tests need.
  void setInput(NodeId Id, size_t Slot, ValueId V);

  /// The non-const accessors drop the content digest: the caller may
  /// write through the reference.
  Value &value(ValueId Id) {
    Digest.reset();
    return Values[valueSlot(Id)];
  }
  const Value &value(ValueId Id) const { return Values[valueSlot(Id)]; }

  Node &node(NodeId Id) {
    Digest.reset();
    return Nodes[nodeSlot(Id)];
  }
  const Node &node(NodeId Id) const { return Nodes[nodeSlot(Id)]; }

  size_t numValues() const { return Values.size(); }
  size_t numNodesIncludingDead() const { return Nodes.size(); }

  /// Number of live nodes.
  size_t numNodes() const { return LiveNodes; }

  const std::vector<Value> &values() const { return Values; }
  const std::vector<Node> &nodes() const { return Nodes; }

  void setGraphInputs(std::vector<ValueId> Ids) {
    Digest.reset();
    Inputs = std::move(Ids);
  }
  void setGraphOutputs(std::vector<ValueId> Ids) {
    Digest.reset();
    Outputs = std::move(Ids);
  }
  const std::vector<ValueId> &graphInputs() const { return Inputs; }
  const std::vector<ValueId> &graphOutputs() const { return Outputs; }

  /// Producer of \p Id, or InvalidNode for graph inputs and parameters.
  NodeId producer(ValueId Id) const;

  /// Live nodes consuming \p Id, each once, in node-id order. The list is
  /// the graph's own: any mutation may invalidate the reference.
  const std::vector<NodeId> &consumers(ValueId Id) const {
    PF_ASSERT(Id >= 0 && static_cast<size_t>(Id) < ConsumersOf.size(),
              "value id out of range");
    return ConsumersOf[static_cast<size_t>(Id)];
  }

  /// Topologically sorted live node ids (Kahn). Aborts on cycles.
  std::vector<NodeId> topoOrder() const;

  /// Like topoOrder, but a cyclic graph yields a partial order (the
  /// schedulable prefix) instead of aborting — callers compare the size
  /// against numNodes() to diagnose cycles gracefully.
  std::vector<NodeId> tryTopoOrder() const;

  /// Structural validation: every live node's values exist, every flowing
  /// value consumed by a live node has a live producer or is a graph input,
  /// graph outputs are produced. Returns an error description or
  /// std::nullopt when valid.
  std::optional<std::string> validate() const;

  /// Attaches explicit data for a parameter (tests / small examples). The
  /// interpreter falls back to seed-based materialization otherwise.
  void setParamData(ValueId Id, Tensor Data);

  /// Explicit data for \p Id if previously attached.
  const Tensor *paramData(ValueId Id) const;

  /// FNV-1a 64 of serializeGraph(*this), the canonical graph hash of plan
  /// keys. Computed on the first call and kept until the graph changes, so
  /// a model keyed many times is serialized once. A write through a Node &
  /// or Value & taken before that call goes unseen; a PIMFLOW_CHECKED
  /// build recomputes the digest on every call and aborts when the kept
  /// one differs. Not synchronized: one thread hashes a graph at a time.
  uint64_t contentDigest() const;

private:
  size_t valueSlot(ValueId Id) const {
    PF_ASSERT(Id >= 0 && static_cast<size_t>(Id) < Values.size(),
              "value id out of range");
    return static_cast<size_t>(Id);
  }
  size_t nodeSlot(NodeId Id) const {
    PF_ASSERT(Id >= 0 && static_cast<size_t>(Id) < Nodes.size(),
              "node id out of range");
    return static_cast<size_t>(Id);
  }

  std::string Name;
  std::vector<Value> Values;
  std::vector<Node> Nodes;
  std::vector<ValueId> Inputs;
  std::vector<ValueId> Outputs;
  /// Producer node of each value (InvalidNode if none).
  std::vector<NodeId> ProducerOf;
  /// Live consumers of each value, each once, in node-id order.
  std::vector<std::vector<NodeId>> ConsumersOf;
  size_t LiveNodes = 0;
  std::unordered_map<ValueId, Tensor> ExplicitParamData;
  /// contentDigest(), once computed and until the next change.
  mutable std::optional<uint64_t> Digest;
};

/// The NodeView of node \p Id of \p G. It holds the operand pointers the
/// view spans, inline for up to six operands (every node but a wide
/// concat), so it must outlive every use of the view.
class GraphNodeView {
public:
  GraphNodeView(const Graph &G, NodeId Id);
  GraphNodeView(const GraphNodeView &) = delete;
  GraphNodeView &operator=(const GraphNodeView &) = delete;

  operator const NodeView &() const { return View; }

private:
  std::array<const Value *, 6> Inline{};
  std::vector<const Value *> Spill;
  NodeView View;
};

} // namespace pf

#endif // PIMFLOW_IR_GRAPH_H
