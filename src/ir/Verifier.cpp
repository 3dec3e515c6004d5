//===- ir/Verifier.cpp - Graph invariant verification -----------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <variant>

#include "ir/ShapeInference.h"
#include "support/Format.h"

using namespace pf;

namespace {

bool validValueId(const Graph &G, ValueId Id) {
  return Id >= 0 && static_cast<size_t>(Id) < G.numValues();
}

std::string valueContext(const Graph &G, ValueId Id) {
  if (!validValueId(G, Id) || G.value(Id).Name.empty())
    return formatStr("value #%d", Id);
  return formatStr("value '%s'", G.value(Id).Name.c_str());
}

std::string nodeContext(const Node &N) {
  if (N.Name.empty())
    return formatStr("node #%d", N.Id);
  return formatStr("node '%s'", N.Name.c_str());
}

bool isGraphInput(const Graph &G, ValueId Id) {
  for (ValueId In : G.graphInputs())
    if (In == Id)
      return true;
  return false;
}

/// True when \p Attrs holds the struct \p Kind requires. std::get on a
/// mismatched variant throws, so every attribute consumer (shape inference,
/// isPimCandidate, the interpreter) depends on this invariant.
bool attrsMatchKind(OpKind Kind, const OpAttrs &Attrs) {
  switch (Kind) {
  case OpKind::Conv2d:
    return std::holds_alternative<Conv2dAttrs>(Attrs);
  case OpKind::Gemm:
    return std::holds_alternative<GemmAttrs>(Attrs);
  case OpKind::MaxPool:
  case OpKind::AvgPool:
    return std::holds_alternative<PoolAttrs>(Attrs);
  case OpKind::BatchNorm:
    return std::holds_alternative<BatchNormAttrs>(Attrs);
  case OpKind::Pad:
    return std::holds_alternative<PadAttrs>(Attrs);
  case OpKind::Slice:
    return std::holds_alternative<SliceAttrs>(Attrs);
  case OpKind::Concat:
    return std::holds_alternative<ConcatAttrs>(Attrs);
  case OpKind::LayerNorm:
    return std::holds_alternative<LayerNormAttrs>(Attrs);
  case OpKind::MatMul:
    return std::holds_alternative<MatMulAttrs>(Attrs);
  default:
    return std::holds_alternative<std::monostate>(Attrs);
  }
}

/// Fewest inputs shape inference / the interpreter dereference without an
/// arity guard of their own; fewer is reported before inference runs.
size_t minInputsFor(OpKind Kind) {
  switch (Kind) {
  case OpKind::Input:
    return 0;
  case OpKind::Conv2d:
  case OpKind::Gemm:
  case OpKind::Add:
  case OpKind::Mul:
  case OpKind::LayerNorm:
  case OpKind::MatMul:
    return 2;
  default:
    return 1;
  }
}

/// Checks \p Name; \p Ctx() builds the diagnostic context, only once a
/// check has failed (verify runs on every compile and replay, and a clean
/// graph should cost no strings).
template <typename CtxFn>
void checkName(const std::string &Name, const CtxFn &Ctx, const char *What,
               DiagnosticEngine &DE) {
  if (Name.empty()) {
    DE.error(DiagCode::VerifyBadName, Ctx(),
             formatStr("%s name is empty", What));
    return;
  }
  if (Name.find_first_of(" \t\n\r") != std::string::npos)
    DE.error(DiagCode::VerifyBadName, Ctx(),
             formatStr("%s name contains whitespace, which the serializer "
                       "cannot round-trip",
                       What));
}

/// Shared legality checks for the conv/pool spatial window attributes.
void checkWindowAttrs(const Node &N, int64_t KH, int64_t KW, int64_t SH,
                      int64_t SW, int64_t PT, int64_t PB, int64_t PL,
                      int64_t PR, DiagnosticEngine &DE) {
  auto Bad = [&](const std::string &Msg) {
    DE.error(DiagCode::VerifyIllegalAttrs, nodeContext(N), Msg);
  };
  if (KH < 1 || KW < 1)
    Bad(formatStr("kernel %lldx%lld must be positive",
                  static_cast<long long>(KH), static_cast<long long>(KW)));
  if (SH < 1 || SW < 1)
    Bad(formatStr("stride %lldx%lld must be positive",
                  static_cast<long long>(SH), static_cast<long long>(SW)));
  if (PT < 0 || PB < 0 || PL < 0 || PR < 0)
    Bad("padding must be non-negative");
  // pad >= kernel yields windows living entirely inside padding; the H-split
  // arithmetic in transform/SplitUtil is only exact under pad < kernel.
  if (KH >= 1 && (PT >= KH || PB >= KH))
    Bad(formatStr("vertical padding %lld/%lld must be smaller than the "
                  "kernel height %lld",
                  static_cast<long long>(PT), static_cast<long long>(PB),
                  static_cast<long long>(KH)));
  if (KW >= 1 && (PL >= KW || PR >= KW))
    Bad(formatStr("horizontal padding %lld/%lld must be smaller than the "
                  "kernel width %lld",
                  static_cast<long long>(PL), static_cast<long long>(PR),
                  static_cast<long long>(KW)));
}

/// False for NaN, infinities, zero and negatives.
bool positiveFinite(float X) { return X > 0.0f && std::isfinite(X); }

/// Attribute legality for one node. Only called when attrsMatchKind() holds.
void checkNodeAttrs(const Graph &G, const Node &N, DiagnosticEngine &DE) {
  auto Bad = [&](const std::string &Msg) {
    DE.error(DiagCode::VerifyIllegalAttrs, nodeContext(N), Msg);
  };
  switch (N.Kind) {
  case OpKind::Conv2d: {
    const Conv2dAttrs &A = std::get<Conv2dAttrs>(N.Attrs);
    checkWindowAttrs(N, A.KernelH, A.KernelW, A.StrideH, A.StrideW,
                     A.PadTop, A.PadBottom, A.PadLeft, A.PadRight, DE);
    if (A.Groups < 1)
      Bad(formatStr("groups %lld must be positive",
                    static_cast<long long>(A.Groups)));
    // Kernel vs input extents: a window taller/wider than the padded input
    // produces a non-positive output extent.
    if (!N.Inputs.empty() && validValueId(G, N.Inputs[0])) {
      const TensorShape &X = G.value(N.Inputs[0]).Shape;
      if (X.rank() == 4) {
        if (A.KernelH > X.dim(1) + A.PadTop + A.PadBottom)
          Bad(formatStr("kernel height %lld exceeds the padded input height "
                        "%lld",
                        static_cast<long long>(A.KernelH),
                        static_cast<long long>(X.dim(1) + A.PadTop +
                                               A.PadBottom)));
        if (A.KernelW > X.dim(2) + A.PadLeft + A.PadRight)
          Bad(formatStr("kernel width %lld exceeds the padded input width "
                        "%lld",
                        static_cast<long long>(A.KernelW),
                        static_cast<long long>(X.dim(2) + A.PadLeft +
                                               A.PadRight)));
      }
    }
    break;
  }
  case OpKind::MaxPool:
  case OpKind::AvgPool: {
    const PoolAttrs &A = std::get<PoolAttrs>(N.Attrs);
    checkWindowAttrs(N, A.KernelH, A.KernelW, A.StrideH, A.StrideW,
                     A.PadTop, A.PadBottom, A.PadLeft, A.PadRight, DE);
    break;
  }
  case OpKind::Pad: {
    const PadAttrs &A = std::get<PadAttrs>(N.Attrs);
    if (A.Top < 0 || A.Bottom < 0 || A.Left < 0 || A.Right < 0)
      Bad("padding must be non-negative");
    break;
  }
  case OpKind::Slice: {
    const SliceAttrs &A = std::get<SliceAttrs>(N.Attrs);
    if (A.Axis < 0)
      Bad(formatStr("slice axis %lld must be non-negative",
                    static_cast<long long>(A.Axis)));
    if (A.Begin < 0 || A.End <= A.Begin)
      Bad(formatStr("slice range [%lld,%lld) is empty or negative",
                    static_cast<long long>(A.Begin),
                    static_cast<long long>(A.End)));
    break;
  }
  case OpKind::Concat: {
    const ConcatAttrs &A = std::get<ConcatAttrs>(N.Attrs);
    if (A.Axis < 0)
      Bad(formatStr("concat axis %lld must be non-negative",
                    static_cast<long long>(A.Axis)));
    break;
  }
  case OpKind::BatchNorm: {
    if (!positiveFinite(std::get<BatchNormAttrs>(N.Attrs).Epsilon))
      Bad("batchnorm epsilon must be positive and finite");
    break;
  }
  case OpKind::LayerNorm: {
    if (!positiveFinite(std::get<LayerNormAttrs>(N.Attrs).Epsilon))
      Bad("layernorm epsilon must be positive and finite");
    break;
  }
  default:
    break;
  }
}

/// Kahn's algorithm over the live subgraph, reporting instead of aborting
/// like topoOrder(). Only meaningful when producer links are consistent;
/// the caller skips it otherwise.
void checkAcyclic(const Graph &G, DiagnosticEngine &DE) {
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
      NodeId Prod = validValueId(G, In) ? G.producer(In) : InvalidNode;
      if (Prod == InvalidNode || G.node(Prod).Dead)
        continue;
      ++Pending;
      ValueConsumers[static_cast<size_t>(In)].push_back(N.Id);
    }
    PendingInputs[static_cast<size_t>(N.Id)] = Pending;
    if (Pending == 0)
      Ready.push_back(N.Id);
  }

  size_t Ordered = 0;
  std::vector<bool> Done(Nodes.size(), false);
  while (!Ready.empty()) {
    NodeId Id = Ready.front();
    Ready.pop_front();
    Done[static_cast<size_t>(Id)] = true;
    ++Ordered;
    for (ValueId Out : G.node(Id).Outputs) {
      if (!validValueId(G, Out))
        continue;
      for (NodeId Consumer : ValueConsumers[static_cast<size_t>(Out)])
        if (--PendingInputs[static_cast<size_t>(Consumer)] == 0)
          Ready.push_back(Consumer);
    }
  }

  if (Ordered == LiveCount)
    return;
  for (const Node &N : Nodes)
    if (!N.Dead && !Done[static_cast<size_t>(N.Id)])
      DE.error(DiagCode::VerifyCycle, nodeContext(N),
               "participates in a dataflow cycle");
}

/// Renders node ids as "{1, 3}".
std::string idList(const std::vector<NodeId> &Ids) {
  std::string Out = "{";
  for (size_t I = 0; I < Ids.size(); ++I) {
    if (I > 0)
      Out += ", ";
    Out += std::to_string(Ids[I]);
  }
  return Out + "}";
}

/// Live nodes reading \p V, in node-id order, from the node table.
std::vector<NodeId> liveReaders(const Graph &G, ValueId V) {
  std::vector<NodeId> Out;
  for (const Node &N : G.nodes())
    if (!N.Dead && std::find(N.Inputs.begin(), N.Inputs.end(), V) !=
                       N.Inputs.end())
      Out.push_back(N.Id);
  return Out;
}

/// The graph's def-use index against the node table: the live-node count
/// must equal \p LiveNodes, and each value's consumer list must hold its
/// live readers, each once, in node-id order. A list is checked entry by
/// entry (strictly increasing, live, reading the value) and its length
/// against a fresh count of distinct readers, so a clean graph builds no
/// list of its own.
void checkIndex(const Graph &G, size_t LiveNodes, DiagnosticEngine &DE) {
  if (G.numNodes() != LiveNodes)
    DE.error(DiagCode::VerifyStaleIndex, "graph",
             formatStr("the index counts %zu live nodes, the node table %zu",
                       G.numNodes(), LiveNodes));
  std::vector<size_t> Readers(G.numValues(), 0);
  for (const Node &N : G.nodes()) {
    if (N.Dead)
      continue;
    for (auto In = N.Inputs.begin(); In != N.Inputs.end(); ++In)
      if (validValueId(G, *In) && std::find(N.Inputs.begin(), In, *In) == In)
        ++Readers[static_cast<size_t>(*In)];
  }
  for (size_t V = 0; V < G.numValues(); ++V) {
    const ValueId Id = static_cast<ValueId>(V);
    const std::vector<NodeId> &Listed = G.consumers(Id);
    bool Fresh = Listed.size() == Readers[V];
    for (size_t I = 0; Fresh && I < Listed.size(); ++I) {
      const NodeId C = Listed[I];
      Fresh = C >= 0 && static_cast<size_t>(C) < G.nodes().size() &&
              (I == 0 || Listed[I - 1] < C) && !G.node(C).Dead &&
              std::find(G.node(C).Inputs.begin(), G.node(C).Inputs.end(),
                        Id) != G.node(C).Inputs.end();
    }
    if (!Fresh)
      DE.error(DiagCode::VerifyStaleIndex, valueContext(G, Id),
               formatStr("consumer list %s, but its live readers are %s",
                         idList(Listed).c_str(),
                         idList(liveReaders(G, Id)).c_str()));
  }
}

} // namespace

bool pf::storedShapesHold(const Graph &G) {
  TensorShape Inferred;
  for (const Node &N : G.nodes()) {
    if (N.Dead)
      continue;
    if (N.Inputs.size() < minInputsFor(N.Kind) || N.Outputs.empty() ||
        inferNodeShapes(G, N.Id, Inferred) ||
        Inferred != G.value(N.Outputs[0]).Shape)
      return false;
  }
  return true;
}

bool pf::verify(const Graph &G, DiagnosticEngine &DE) {
  const size_t ErrorsBefore = DE.errorCount();
  // Set when a finding would make the downstream checks unsafe (Kahn over
  // inconsistent links, shape inference over bad ids / mismatched attrs).
  bool Structural = false;

  checkName(G.name(), [] { return std::string("graph"); }, "graph", DE);

  // 1. Value table sanity.
  for (size_t I = 0; I < G.values().size(); ++I) {
    const Value &V = G.values()[I];
    if (V.Id != static_cast<ValueId>(I)) {
      DE.error(DiagCode::VerifyDanglingValue, valueContext(G, V.Id),
               formatStr("stored id %d does not match table slot %zu", V.Id,
                         I));
      Structural = true;
    }
    checkName(V.Name, [I] { return formatStr("value #%zu", I); }, "value",
              DE);
  }

  // 2-6. Per-node structure, dataflow uses, attributes, devices.
  size_t LiveNodes = 0;
  for (const Node &N : G.nodes()) {
    if (N.Dead)
      continue;
    ++LiveNodes;
    auto Ctx = [&N] { return nodeContext(N); };

    if (N.Id < 0 || static_cast<size_t>(N.Id) >= G.nodes().size() ||
        &G.nodes()[static_cast<size_t>(N.Id)] != &N) {
      DE.error(DiagCode::VerifyProducerLink, Ctx(),
               formatStr("stored node id %d does not match its table slot",
                         N.Id));
      Structural = true;
      continue; // Id-keyed checks below would be misattributed.
    }

    checkName(N.Name, Ctx, "node", DE);

    const bool AttrsOk = attrsMatchKind(N.Kind, N.Attrs);
    if (!AttrsOk) {
      DE.error(DiagCode::VerifyIllegalAttrs, Ctx(),
               formatStr("attribute struct does not match op kind '%s'",
                         opKindName(N.Kind)));
      Structural = true;
    }

    if (N.Inputs.size() < minInputsFor(N.Kind)) {
      DE.error(DiagCode::VerifyIllegalAttrs, Ctx(),
               formatStr("%s expects at least %zu input(s), got %zu",
                         opKindName(N.Kind), minInputsFor(N.Kind),
                         N.Inputs.size()));
      Structural = true;
    }
    if (N.Outputs.empty()) {
      DE.error(DiagCode::VerifyProducerLink, Ctx(), "node produces no outputs");
      Structural = true;
    }

    for (size_t I = 0; I < N.Inputs.size(); ++I)
      if (!validValueId(G, N.Inputs[I])) {
        DE.error(DiagCode::VerifyDanglingValue, Ctx(),
                 formatStr("input #%zu references value id %d, but the graph "
                           "has %zu values",
                           I, N.Inputs[I], G.numValues()));
        Structural = true;
      }

    for (size_t I = 0; I < N.Outputs.size(); ++I) {
      const ValueId Out = N.Outputs[I];
      if (!validValueId(G, Out)) {
        DE.error(DiagCode::VerifyDanglingValue, Ctx(),
                 formatStr("output #%zu references value id %d, but the "
                           "graph has %zu values",
                           I, Out, G.numValues()));
        Structural = true;
        continue;
      }
      if (G.value(Out).IsParam) {
        DE.error(DiagCode::VerifyProducerLink, Ctx(),
                 formatStr("output #%zu is parameter '%s'; parameters cannot "
                           "be produced",
                           I, G.value(Out).Name.c_str()));
        Structural = true;
      }
      const NodeId Prod = G.producer(Out);
      if (Prod != N.Id) {
        DE.error(DiagCode::VerifyProducerLink, Ctx(),
                 Prod == InvalidNode
                     ? formatStr("producer link for output '%s' is unset",
                                 G.value(Out).Name.c_str())
                     : formatStr("producer link for output '%s' points at "
                                 "node #%d",
                                 G.value(Out).Name.c_str(), Prod));
        Structural = true;
      }
    }

    // Use-before-def: every consumed flowing value needs a live producer.
    for (ValueId In : N.Inputs) {
      if (!validValueId(G, In))
        continue;
      const Value &V = G.value(In);
      if (V.IsParam || isGraphInput(G, In))
        continue;
      const NodeId Prod = G.producer(In);
      if (Prod == InvalidNode)
        DE.error(DiagCode::VerifyUseBeforeDef, Ctx(),
                 formatStr("consumes %s, which no live node produces",
                           valueContext(G, In).c_str()));
      else if (G.node(Prod).Dead)
        DE.error(DiagCode::VerifyUseBeforeDef, Ctx(),
                 formatStr("consumes %s, produced only by dead node '%s'",
                           valueContext(G, In).c_str(),
                           G.node(Prod).Name.c_str()));
    }

    if (AttrsOk) {
      checkNodeAttrs(G, N, DE);
      if (N.Dev == Device::Pim && !isPimCandidate(N))
        DE.error(DiagCode::VerifyDevice, Ctx(),
                 formatStr("%s is assigned to PIM but is not a PIM-offload "
                           "candidate",
                           opKindName(N.Kind)));
    }
  }

  // 4. Graph interface.
  for (ValueId In : G.graphInputs()) {
    if (!validValueId(G, In)) {
      DE.error(DiagCode::VerifyGraphOutput, formatStr("graph input #%d", In),
               "references a value id out of range");
      Structural = true;
      continue;
    }
    if (G.value(In).IsParam)
      DE.error(DiagCode::VerifyGraphOutput, valueContext(G, In),
               "graph input is a parameter");
    const NodeId Prod = G.producer(In);
    if (Prod != InvalidNode && G.node(Prod).Kind != OpKind::Input)
      DE.error(DiagCode::VerifyGraphOutput, valueContext(G, In),
               formatStr("graph input is produced by node '%s'",
                         G.node(Prod).Name.c_str()));
  }
  for (ValueId Out : G.graphOutputs()) {
    if (!validValueId(G, Out)) {
      DE.error(DiagCode::VerifyGraphOutput, formatStr("graph output #%d", Out),
               "references a value id out of range");
      Structural = true;
      continue;
    }
    const NodeId Prod = G.producer(Out);
    if (Prod == InvalidNode && !isGraphInput(G, Out) && !G.value(Out).IsParam)
      DE.error(DiagCode::VerifyGraphOutput, valueContext(G, Out),
               "graph output is never produced");
    else if (Prod != InvalidNode && G.node(Prod).Dead)
      DE.error(DiagCode::VerifyGraphOutput, valueContext(G, Out),
               formatStr("graph output is produced only by dead node '%s'",
                         G.node(Prod).Name.c_str()));
  }
  if (G.graphOutputs().empty() && LiveNodes > 0)
    DE.error(DiagCode::VerifyGraphOutput, "graph",
             "graph has live nodes but no outputs");

  // 8. The def-use index every toposort reads, so before shape inference.
  checkIndex(G, LiveNodes, DE);

  // 3. Acyclicity, once the producer links are known consistent.
  if (!Structural)
    checkAcyclic(G, DE);

  // 7. Shape consistency, only on an otherwise-clean graph: inference would
  // trip (or mis-blame) on any of the breakage reported above. When every
  // node's stored outputs match inference from its stored inputs, a copy
  // re-inferred in topological order would reproduce every stored shape
  // (by induction over that order), so the copy is made only to word the
  // findings once some node disagrees or fails.
  if (DE.errorCount() == ErrorsBefore && !storedShapesHold(G)) {
    Graph Copy(G);
    if (auto Err = inferShapes(Copy)) {
      DE.error(DiagCode::VerifyShapeInfer, "graph", *Err);
    } else {
      for (const Node &N : G.nodes()) {
        if (N.Dead)
          continue;
        for (ValueId Out : N.Outputs)
          if (G.value(Out).Shape != Copy.value(Out).Shape)
            DE.error(DiagCode::VerifyStaleShape, valueContext(G, Out),
                     formatStr("stored shape %s but inference computes %s",
                               G.value(Out).Shape.toString().c_str(),
                               Copy.value(Out).Shape.toString().c_str()));
      }
    }
  }

  return DE.errorCount() == ErrorsBefore;
}

std::optional<std::string> pf::verify(const Graph &G) {
  DiagnosticEngine DE;
  if (verify(G, DE))
    return std::nullopt;
  return DE.render();
}

void pf::verifyOrDie(const Graph &G, const char *When) {
  DiagnosticEngine DE;
  if (verify(G, DE))
    return;
  fatal(formatStr("graph '%s' failed verification %s:\n%s", G.name().c_str(),
                  When, DE.render().c_str()));
}
