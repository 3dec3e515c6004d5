//===- ir/GraphSerializer.cpp - Graph save/load -----------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/GraphSerializer.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "support/Format.h"
#include "support/StringUtil.h"
#include "support/TextFile.h"

using namespace pf;

namespace {

const char *kMagic = "pimflow-graph v1";

/// Kind <-> mnemonic lookup via opKindName.
std::optional<OpKind> kindFromName(const std::string &Name) {
  static const OpKind All[] = {
      OpKind::Input,   OpKind::Conv2d,  OpKind::Gemm,
      OpKind::Relu,    OpKind::Relu6,   OpKind::Sigmoid,
      OpKind::SiLU,    OpKind::Tanh,    OpKind::Gelu,
      OpKind::Softmax, OpKind::Add,     OpKind::Mul,
      OpKind::BatchNorm, OpKind::MaxPool, OpKind::AvgPool,
      OpKind::GlobalAvgPool, OpKind::Pad, OpKind::Slice,
      OpKind::Concat,  OpKind::Flatten, OpKind::Identity,
      OpKind::LayerNorm, OpKind::MatMul,
  };
  for (OpKind K : All)
    if (Name == opKindName(K))
      return K;
  return std::nullopt;
}

std::optional<Device> deviceFromName(const std::string &Name) {
  for (Device D : {Device::Any, Device::Gpu, Device::Pim})
    if (Name == deviceName(D))
      return D;
  return std::nullopt;
}

/// Appends " <key>=<integer>".
void appendAttr(std::string &Out, const char *Key, int64_t V) {
  Out += ' ';
  Out += Key;
  Out += '=';
  appendInt(Out, V);
}

/// Appends the " kh=.. kw=.. sh=.. sw=.. pt=.. pb=.. pl=.. pr=.." window
/// tokens shared by conv and pooling nodes.
template <typename WindowAttrs>
void appendWindow(std::string &Out, const WindowAttrs &A) {
  appendAttr(Out, "kh", A.KernelH);
  appendAttr(Out, "kw", A.KernelW);
  appendAttr(Out, "sh", A.StrideH);
  appendAttr(Out, "sw", A.StrideW);
  appendAttr(Out, "pt", A.PadTop);
  appendAttr(Out, "pb", A.PadBottom);
  appendAttr(Out, "pl", A.PadLeft);
  appendAttr(Out, "pr", A.PadRight);
}

/// Appends " eps=<%.9g>".
void appendEpsilon(std::string &Out, float Epsilon) {
  Out += " eps=";
  appendDouble(Out, Epsilon, 9);
}

/// Appends the attr tokens of \p N.
void appendAttrs(std::string &Out, const Node &N) {
  switch (N.Kind) {
  case OpKind::Conv2d:
    appendWindow(Out, N.conv());
    appendAttr(Out, "g", N.conv().Groups);
    return;
  case OpKind::Gemm:
    appendAttr(Out, "bias", N.gemm().HasBias ? 1 : 0);
    return;
  case OpKind::MaxPool:
  case OpKind::AvgPool:
    appendWindow(Out, std::get<PoolAttrs>(N.Attrs));
    return;
  case OpKind::BatchNorm:
    appendEpsilon(Out, std::get<BatchNormAttrs>(N.Attrs).Epsilon);
    return;
  case OpKind::Pad: {
    const PadAttrs &A = std::get<PadAttrs>(N.Attrs);
    appendAttr(Out, "pt", A.Top);
    appendAttr(Out, "pb", A.Bottom);
    appendAttr(Out, "pl", A.Left);
    appendAttr(Out, "pr", A.Right);
    return;
  }
  case OpKind::Slice: {
    const SliceAttrs &A = std::get<SliceAttrs>(N.Attrs);
    appendAttr(Out, "axis", A.Axis);
    appendAttr(Out, "begin", A.Begin);
    appendAttr(Out, "end", A.End);
    return;
  }
  case OpKind::Concat:
    appendAttr(Out, "axis", std::get<ConcatAttrs>(N.Attrs).Axis);
    return;
  case OpKind::LayerNorm:
    appendEpsilon(Out, std::get<LayerNormAttrs>(N.Attrs).Epsilon);
    return;
  case OpKind::MatMul:
    appendAttr(Out, "tb", std::get<MatMulAttrs>(N.Attrs).TransposeB ? 1 : 0);
    return;
  default:
    return;
  }
}

/// Parsed key=value attr map.
using AttrMap = std::unordered_map<std::string, std::string>;

int64_t attrInt(const AttrMap &M, const char *Key, int64_t Default = 0) {
  auto It = M.find(Key);
  return It == M.end() ? Default : std::atoll(It->second.c_str());
}

/// An "eps" value: one number in parseDouble's grammar that stays finite
/// as a float (IEEE conversion rounds "1e300" to inf).
std::optional<float> parseEpsilon(const std::string &Val) {
  const std::optional<double> Eps = parseDouble(Val);
  if (!Eps || !std::isfinite(static_cast<float>(*Eps)))
    return std::nullopt;
  return static_cast<float>(*Eps);
}

OpAttrs attrsFromMap(OpKind Kind, const AttrMap &M) {
  switch (Kind) {
  case OpKind::Conv2d: {
    Conv2dAttrs A;
    A.KernelH = attrInt(M, "kh", 1);
    A.KernelW = attrInt(M, "kw", 1);
    A.StrideH = attrInt(M, "sh", 1);
    A.StrideW = attrInt(M, "sw", 1);
    A.PadTop = attrInt(M, "pt");
    A.PadBottom = attrInt(M, "pb");
    A.PadLeft = attrInt(M, "pl");
    A.PadRight = attrInt(M, "pr");
    A.Groups = attrInt(M, "g", 1);
    return A;
  }
  case OpKind::Gemm: {
    GemmAttrs A;
    A.HasBias = attrInt(M, "bias", 1) != 0;
    return A;
  }
  case OpKind::MaxPool:
  case OpKind::AvgPool: {
    PoolAttrs A;
    A.KernelH = attrInt(M, "kh", 2);
    A.KernelW = attrInt(M, "kw", 2);
    A.StrideH = attrInt(M, "sh", 2);
    A.StrideW = attrInt(M, "sw", 2);
    A.PadTop = attrInt(M, "pt");
    A.PadBottom = attrInt(M, "pb");
    A.PadLeft = attrInt(M, "pl");
    A.PadRight = attrInt(M, "pr");
    return A;
  }
  case OpKind::BatchNorm: {
    BatchNormAttrs A;
    auto It = M.find("eps");
    if (It != M.end())
      A.Epsilon = *parseEpsilon(It->second);
    return A;
  }
  case OpKind::Pad: {
    PadAttrs A;
    A.Top = attrInt(M, "pt");
    A.Bottom = attrInt(M, "pb");
    A.Left = attrInt(M, "pl");
    A.Right = attrInt(M, "pr");
    return A;
  }
  case OpKind::Slice: {
    SliceAttrs A;
    A.Axis = attrInt(M, "axis", 1);
    A.Begin = attrInt(M, "begin");
    A.End = attrInt(M, "end");
    return A;
  }
  case OpKind::Concat: {
    ConcatAttrs A;
    A.Axis = attrInt(M, "axis", 1);
    return A;
  }
  case OpKind::LayerNorm: {
    LayerNormAttrs A;
    auto It = M.find("eps");
    if (It != M.end())
      A.Epsilon = *parseEpsilon(It->second);
    return A;
  }
  case OpKind::MatMul: {
    MatMulAttrs A;
    A.TransposeB = attrInt(M, "tb", 0) != 0;
    return A;
  }
  default:
    return std::monostate{};
  }
}

/// Tokenizer skipping repeated spaces.
std::vector<std::string> tokens(const std::string &Line) {
  std::vector<std::string> Out;
  for (const std::string &T : split(Line, ' '))
    if (!T.empty())
      Out.push_back(T);
  return Out;
}

} // namespace

std::string pf::serializeGraph(const Graph &G) {
  std::string Out = kMagic;
  Out += ' ';
  Out += G.name();
  Out += '\n';

  // Compact value renumbering: only values referenced by live structure,
  // numbered in first-touch order.
  const std::vector<NodeId> Order = G.topoOrder();
  std::vector<int> Renumber(G.numValues(), -1);
  std::vector<ValueId> Ordered; // New id -> old id.
  auto Touch = [&](ValueId Id) {
    int &New = Renumber[static_cast<size_t>(Id)];
    if (New < 0) {
      New = static_cast<int>(Ordered.size());
      Ordered.push_back(Id);
    }
  };
  for (ValueId In : G.graphInputs())
    Touch(In);
  for (NodeId Id : Order) {
    const Node &N = G.node(Id);
    for (ValueId In : N.Inputs)
      Touch(In);
    for (ValueId O : N.Outputs)
      Touch(O);
  }
  for (ValueId O : G.graphOutputs())
    Touch(O);
  auto Ref = [&](ValueId Id) {
    Out += ' ';
    appendInt(Out, Renumber[static_cast<size_t>(Id)]);
  };

  // Emit values sorted by new id.
  for (size_t I = 0; I < Ordered.size(); ++I) {
    const Value &V = G.value(Ordered[I]);
    PF_ASSERT(V.Name.find(' ') == std::string::npos,
              "value names must not contain spaces");
    Out += "value ";
    appendUint(Out, I);
    Out += ' ';
    Out += V.Name;
    Out += ' ';
    Out += dataTypeName(V.Type);
    Out += V.IsParam ? " param" : " flow";
    if (V.IsParam) {
      Out += ' ';
      appendUint(Out, V.InitSeed);
    }
    for (int64_t D : V.Shape.dims()) {
      Out += ' ';
      appendInt(Out, D);
    }
    Out += '\n';
  }

  int NodeIdx = 0;
  for (NodeId Id : Order) {
    const Node &N = G.node(Id);
    PF_ASSERT(N.Name.find(' ') == std::string::npos,
              "node names must not contain spaces");
    Out += "node ";
    appendInt(Out, NodeIdx++);
    Out += ' ';
    Out += opKindName(N.Kind);
    Out += ' ';
    Out += N.Name;
    Out += ' ';
    Out += deviceName(N.Dev);
    Out += " inputs";
    for (ValueId In : N.Inputs)
      Ref(In);
    Out += " outputs";
    for (ValueId O : N.Outputs)
      Ref(O);
    appendAttrs(Out, N);
    Out += '\n';
  }

  Out += "inputs";
  for (ValueId In : G.graphInputs())
    Ref(In);
  Out += "\noutputs";
  for (ValueId O : G.graphOutputs())
    Ref(O);
  Out += "\nend\n";
  return Out;
}

std::variant<Graph, std::string> pf::parseGraph(const std::string &Text) {
  const std::vector<std::string> Lines = split(Text, '\n');
  if (Lines.empty() || !startsWith(Lines[0], kMagic))
    return std::string("missing pimflow-graph header");
  const std::string Name(trim(Lines[0].substr(std::strlen(kMagic))));
  Graph G(Name.empty() ? "graph" : Name);

  std::vector<ValueId> ValueIds; // Serialized id -> graph value id.
  auto ValueAt = [&ValueIds](int64_t I) -> std::optional<ValueId> {
    if (I < 0 || static_cast<size_t>(I) >= ValueIds.size())
      return std::nullopt;
    return ValueIds[static_cast<size_t>(I)];
  };

  for (size_t LineNo = 1; LineNo < Lines.size(); ++LineNo) {
    const std::string Line(trim(Lines[LineNo]));
    if (Line.empty())
      continue;
    const std::vector<std::string> T = tokens(Line);
    auto Err = [&LineNo](const std::string &Why) {
      return formatStr("line %zu: %s", LineNo + 1, Why.c_str());
    };

    if (T[0] == "end")
      break;

    if (T[0] == "value") {
      if (T.size() < 5)
        return Err("malformed value line");
      const std::optional<int64_t> SerialId = parseInt(T[1]);
      if (!SerialId)
        return Err("value id '" + T[1] + "' is not an integer");
      if (*SerialId != static_cast<int64_t>(ValueIds.size()))
        return Err("value ids must be sequential");
      const std::string &VName = T[2];
      const DataType Type = T[3] == "f32" ? DataType::F32 : DataType::F16;
      if (T[3] != "f32" && T[3] != "f16")
        return Err("unknown data type " + T[3]);
      const bool IsParam = T[4] == "param";
      if (T[4] != "param" && T[4] != "flow")
        return Err("unknown value class " + T[4]);
      size_t DimStart = 5;
      uint64_t Seed = 0;
      if (IsParam) {
        if (T.size() < 6)
          return Err("param value missing init seed");
        const std::optional<uint64_t> S = parseUint(T[5]);
        if (!S)
          return Err("init seed '" + T[5] +
                     "' is not a non-negative integer");
        Seed = *S;
        DimStart = 6;
      }
      std::vector<int64_t> Dims;
      for (size_t I = DimStart; I < T.size(); ++I) {
        const std::optional<int64_t> D = parseInt(T[I]);
        if (!D || *D <= 0)
          return Err("shape extent '" + T[I] +
                     "' is not a positive integer");
        Dims.push_back(*D);
      }
      TensorShape Shape(Dims);
      if (IsParam) {
        ValueId Id = G.addParam(VName, Shape, Type);
        G.value(Id).InitSeed = Seed; // Preserve weight materialization.
        ValueIds.push_back(Id);
      } else {
        ValueIds.push_back(G.addValue(VName, Shape, Type));
      }
      continue;
    }

    if (T[0] == "node") {
      if (T.size() < 6)
        return Err("malformed node line");
      const std::optional<OpKind> Kind = kindFromName(T[2]);
      if (!Kind)
        return Err("unknown op kind " + T[2]);
      const std::string &NName = T[3];
      const std::optional<Device> Dev = deviceFromName(T[4]);
      if (!Dev)
        return Err("unknown device " + T[4]);
      if (T[5] != "inputs")
        return Err("expected 'inputs'");
      size_t I = 6;
      std::vector<ValueId> Ins, Outs;
      for (; I < T.size() && T[I] != "outputs"; ++I) {
        const std::optional<int64_t> Idx = parseInt(T[I]);
        if (!Idx)
          return Err("input value id '" + T[I] + "' is not an integer");
        auto V = ValueAt(*Idx);
        if (!V)
          return Err("input value id out of range");
        Ins.push_back(*V);
      }
      if (I >= T.size())
        return Err("expected 'outputs'");
      for (++I; I < T.size() && T[I].find('=') == std::string::npos; ++I) {
        const std::optional<int64_t> Idx = parseInt(T[I]);
        if (!Idx)
          return Err("output value id '" + T[I] + "' is not an integer");
        auto V = ValueAt(*Idx);
        if (!V)
          return Err("output value id out of range");
        Outs.push_back(*V);
      }
      AttrMap Attrs;
      for (; I < T.size(); ++I) {
        const size_t Eq = T[I].find('=');
        if (Eq == std::string::npos)
          return Err("malformed attribute " + T[I]);
        const std::string Key = T[I].substr(0, Eq);
        const std::string Val = T[I].substr(Eq + 1);
        // "eps" attrs are floats; everything else must be an integer
        // (atoi-style silent truncation used to accept "kh=3x" as 3).
        if (Key == "eps") {
          if (!parseEpsilon(Val))
            return Err("attribute " + Key + " value '" + Val +
                       "' is not a finite float");
        } else if (!parseInt(Val)) {
          return Err("attribute " + Key + " value '" + Val +
                     "' is not an integer");
        }
        Attrs[Key] = Val;
      }
      if (Outs.empty())
        return Err("node without outputs");
      G.addNode(*Kind, NName, attrsFromMap(*Kind, Attrs), std::move(Ins),
                std::move(Outs));
      G.node(static_cast<NodeId>(G.numNodesIncludingDead() - 1)).Dev =
          *Dev;
      continue;
    }

    if (T[0] == "inputs" || T[0] == "outputs") {
      std::vector<ValueId> Ids;
      for (size_t I = 1; I < T.size(); ++I) {
        const std::optional<int64_t> Idx = parseInt(T[I]);
        if (!Idx)
          return Err("graph interface value id '" + T[I] +
                     "' is not an integer");
        auto V = ValueAt(*Idx);
        if (!V)
          return Err("graph interface value id out of range");
        Ids.push_back(*V);
      }
      if (T[0] == "inputs")
        G.setGraphInputs(std::move(Ids));
      else
        G.setGraphOutputs(std::move(Ids));
      continue;
    }

    return Err("unknown directive " + T[0]);
  }

  if (auto VErr = G.validate())
    return "parsed graph is invalid: " + *VErr;
  return G;
}

bool pf::saveGraph(const Graph &G, const std::string &Path) {
  return writeTextFile(Path, serializeGraph(G));
}

std::optional<Graph> pf::loadGraph(const std::string &Path,
                                   std::string *Error) {
  const std::optional<std::string> Text = readTextFile(Path);
  if (!Text) {
    if (Error)
      *Error = "cannot open " + Path;
    return std::nullopt;
  }
  auto Result = parseGraph(*Text);
  if (std::holds_alternative<std::string>(Result)) {
    if (Error)
      *Error = std::get<std::string>(Result);
    return std::nullopt;
  }
  return std::get<Graph>(std::move(Result));
}
