//===- search/Profiler.cpp - Candidate profiling ----------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "search/Profiler.h"

#include <algorithm>
#include <bit>

#include "codegen/PimKernelSpec.h"
#include "obs/Counters.h"
#include "obs/FlightRecorder.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Scope.h"
#include "obs/Trace.h"
#include "search/LayerExtract.h"
#include "support/Format.h"
#include "support/StringUtil.h"
#include "support/TextFile.h"
#include "transform/MdDpSplitPass.h"
#include "transform/PipelinePass.h"

using namespace pf;

namespace {

#ifdef PIMFLOW_CHECKED
constexpr bool CrossCheckPrices = true;
#else
constexpr bool CrossCheckPrices = false;
#endif

/// A value of a micrograph priced without building it: what the cost forms
/// read of it, and the index of the node producing it (-1: none).
struct TaskValue {
  Value V;
  int Producer = -1;

  TaskValue() = default;
  TaskValue(TensorShape Shape, DataType Type, bool IsParam, int Producer)
      : Producer(Producer) {
    V.Shape = std::move(Shape);
    V.Type = Type;
    V.IsParam = IsParam;
  }
};

/// The bit of \p Producer in ScheduleTask::Inputs.
uint32_t bitOf(int Producer) { return 1u << Producer; }

/// Appends \p V to \p Out as a base-128 varint, low bits first.
void putVarint(std::string &Out, uint64_t V) {
  for (; V >= 0x80; V >>= 7)
    Out += static_cast<char>((V & 0x7F) | 0x80);
  Out += static_cast<char>(V);
}

/// Reads the varint at \p Pos of \p K and moves \p Pos past it.
uint64_t getVarint(std::string_view K, size_t &Pos) {
  uint64_t V = 0;
  for (unsigned Shift = 0;; Shift += 7) {
    const auto Byte = static_cast<uint8_t>(K[Pos++]);
    V |= static_cast<uint64_t>(Byte & 0x7F) << Shift;
    if (Byte < 0x80)
      return V;
  }
}

void putShape(std::string &Out, const TensorShape &S) {
  putVarint(Out, S.dims().size());
  for (int64_t D : S.dims())
    putVarint(Out, static_cast<uint64_t>(D));
}

/// Renders the shape at \p Pos of \p K as TensorShape::toString does.
void appendShape(std::string &Row, std::string_view K, size_t &Pos) {
  Row += '[';
  for (uint64_t I = 0, Rank = getVarint(K, Pos); I < Rank; ++I) {
    if (I != 0)
      Row += 'x';
    appendInt(Row, static_cast<int64_t>(getVarint(K, Pos)));
  }
  Row += ']';
}

/// The mode names rows print, by Profiler::Mode.
constexpr const char *ModeNames[] = {"gpu", "pim", "mddp", "pipe"};

/// The labels a row prints before each window field, as
/// [k<h>.<w> s<h>.<w> p<top>.<bottom>.<left>.<right> g<groups>] (a pool's
/// window stops before the groups).
constexpr const char *WindowLabels[] = {"[k", ".", " s", ".", " p",
                                        ".",  ".", ".",  " g"};

/// How many window fields a row prints for a node of \p Kind: a Conv2d's
/// nine, a pool's eight (no groups; ir/Metrics prices a pool by its
/// kernel), none for other kinds.
size_t windowArity(OpKind Kind) {
  switch (Kind) {
  case OpKind::Conv2d:
    return 9;
  case OpKind::MaxPool:
  case OpKind::AvgPool:
    return 8;
  default:
    return 0;
  }
}

/// Packs the windowArity(N.Kind) window fields of \p N.
void putWindow(std::string &Out, const Node &N) {
  if (N.Kind == OpKind::Conv2d) {
    const Conv2dAttrs &A = N.conv();
    for (int64_t F : {A.KernelH, A.KernelW, A.StrideH, A.StrideW, A.PadTop,
                      A.PadBottom, A.PadLeft, A.PadRight, A.Groups})
      putVarint(Out, static_cast<uint64_t>(F));
  } else if (windowArity(N.Kind) != 0) {
    const PoolAttrs &A = std::get<PoolAttrs>(N.Attrs);
    for (int64_t F : {A.KernelH, A.KernelW, A.StrideH, A.StrideW, A.PadTop,
                      A.PadBottom, A.PadLeft, A.PadRight})
      putVarint(Out, static_cast<uint64_t>(F));
  }
}

/// \p Ratio, in (0, 1), in hundredths as appendFixed(.., 2) prints it: its
/// exact binary value rounded to the nearest hundredth, ties to even.
uint64_t hundredths(double Ratio) {
  PF_ASSERT(Ratio > 0.0 && Ratio < 1.0, "split ratio out of range");
  // Ratio == Mant / 2^Shift exactly: the IEEE significand over its scale (a
  // subnormal has no implicit bit), with Shift >= 53 as Ratio < 1.
  const auto Bits = std::bit_cast<uint64_t>(Ratio);
  const auto Exp = static_cast<int>(Bits >> 52);
  const uint64_t Mant = (Bits & ((uint64_t(1) << 52) - 1)) |
                        (Exp != 0 ? uint64_t(1) << 52 : 0);
  const int Shift = 1075 - std::max(Exp, 1);
  // 100 * Mant < 2^60, so below 2^-8 the ratio rounds to 0.00.
  if (Shift > 60)
    return 0;
  const uint64_t Scaled = 100 * Mant;
  const uint64_t Half = uint64_t(1) << (Shift - 1);
  const uint64_t Rem = Scaled & (2 * Half - 1);
  const uint64_t Q = Scaled >> Shift;
  return Q + (Rem > Half || (Rem == Half && (Q & 1)) ? 1 : 0);
}

} // namespace

Profiler::Profiler(const SystemConfig &Config)
    : Config(Config), Engine(Config),
      Gen(Config.Pim.Channels > 0 ? Config.Pim : PimConfig::newtonPlus(),
          Config.Codegen) {}

void Profiler::packKey(const Graph &G, const std::vector<NodeId> &Chain,
                       Mode M, uint64_t Arg) {
  Key.clear();
  Key += static_cast<char>(M);
  if (M == Mode::MdDp || M == Mode::Pipeline)
    putVarint(Key, Arg);
  for (NodeId Id : Chain) {
    const Node &N = G.node(Id);
    Key += static_cast<char>(N.Kind);
    putWindow(Key, N);
    putVarint(Key, N.Inputs.size());
    for (ValueId In : N.Inputs)
      putShape(Key, G.value(In).Shape);
    putShape(Key, G.value(N.Outputs[0]).Shape);
  }
}

std::string Profiler::rowOf(std::string_view K) const {
  if (ConfigSig.empty())
    ConfigSig = systemConfigPlanSig(Config);
  std::string Row = ConfigSig;
  Row += '|';
  size_t Pos = 0;
  const auto M = static_cast<Mode>(K[Pos++]);
  Row += ModeNames[static_cast<size_t>(M)];
  if (M == Mode::MdDp) {
    const uint64_t Q = getVarint(K, Pos);
    appendUint(Row, Q / 100);
    Row += '.';
    Row += static_cast<char>('0' + Q / 10 % 10);
    Row += static_cast<char>('0' + Q % 10);
  } else if (M == Mode::Pipeline) {
    appendInt(Row, static_cast<int64_t>(getVarint(K, Pos)));
  }
  Row += '|';
  while (Pos < K.size()) {
    const auto Kind = static_cast<OpKind>(K[Pos++]);
    Row += opKindName(Kind);
    if (const size_t Fields = windowArity(Kind)) {
      for (size_t I = 0; I < Fields; ++I) {
        Row += WindowLabels[I];
        appendInt(Row, static_cast<int64_t>(getVarint(K, Pos)));
      }
      Row += ']';
    }
    for (uint64_t I = 0, Inputs = getVarint(K, Pos); I < Inputs; ++I)
      appendShape(Row, K, Pos);
    Row += "->";
    appendShape(Row, K, Pos);
    Row += ';';
  }
  return Row;
}

template <typename ComputeFn>
double Profiler::measure(const ComputeFn &Compute) {
  auto It = Memo.find(Key);
  if (It == Memo.end() && !Loaded.empty()) {
    // A loaded row this sample prints as becomes its memo entry.
    if (auto Row = Loaded.find(rowOf(Key)); Row != Loaded.end()) {
      It = Memo.emplace(Key, Row->second).first;
      Loaded.erase(Row);
    }
  }
  if (It != Memo.end()) {
    ++Hits;
    obs::addCounter("profiler.cache_hits");
    obs::flightEvent(obs::FlightEventKind::CacheHit, 0);
    const double Ns = It->second;
    // Hits feed the same profile-latency distribution as fresh measures:
    // the simulated latency is deterministic and identical either way, so
    // the histogram describes the candidates this run evaluated no matter
    // how warm the cache was.
    if (Ns >= 0.0)
      obs::recordMetric("profiler.profile_sim_ns", Ns);
    return Ns;
  }

  ++Misses;
  obs::addCounter("profiler.cache_misses");
  const bool Observed = obs::activeRegistry().enabled();
  const double StartUs = Observed ? obs::Tracer::instance().nowUs() : 0.0;
  double Ns;
  {
    PF_TRACE_SCOPE_CAT("profiler.measure", "profile");
    Ns = Compute();
  }
  if (Observed)
    obs::recordMetric("profiler.measure_wall_us",
                      obs::Tracer::instance().nowUs() - StartUs);
  // Per-candidate profile latency in *simulated* nanoseconds: the
  // deterministic tail-latency distribution the bench baselines gate on
  // (wall time stays in the histogram above, which no gate judges). Failed pipeline
  // probes return a negative sentinel and are not latencies.
  if (Ns >= 0.0)
    obs::recordMetric("profiler.profile_sim_ns", Ns);
  obs::flightEvent(obs::FlightEventKind::CacheMiss, 0, -1, -1, Ns);
  Memo.emplace(Key, Ns);
  return Ns;
}

double Profiler::micrographNs(ExecutionEngine &E, const Graph &G,
                               const std::vector<NodeId> &Chain,
                               const MicroTransform &Transform) {
  ExtractedGraph Micro = extractChain(G, Chain);
  if (!Transform(Micro.G, Micro.Nodes))
    return -1.0;
  return E.execute(Micro.G).TotalNs;
}

double Profiler::crossChecked(double Priced, const Graph &G,
                              const std::vector<NodeId> &Chain,
                              const MicroTransform &Transform) const {
  if constexpr (CrossCheckPrices) {
    // The check's engine run records into a scope of its own, and plans on
    // an engine of its own, so a checked build records the same telemetry
    // as any other: the profiler's engine keeps no plan the check made.
    obs::Scope Quiet;
    obs::ScopeGuard Guard(Quiet);
    ExecutionEngine Own(Config);
    const double Measured = micrographNs(Own, G, Chain, Transform);
    if (std::bit_cast<uint64_t>(Measured) != std::bit_cast<uint64_t>(Priced))
      fatal(formatStr("profile sample '%s' is priced at %.17g ns but its "
                      "micrograph runs in %.17g ns",
                      rowOf(Key).c_str(), Priced, Measured));
  }
  return Priced;
}

double Profiler::pricePim(const Graph &G, NodeId Id) const {
  return (Config.SyncOverheadNs + Gen.planUntraced(lowerToPimSpec(G, Id)).Ns) +
         Config.SyncOverheadNs;
}

double Profiler::priceMdDp(const Graph &G, const std::vector<NodeId> &Chain,
                           double RatioGpu) const {
  const NodeId Id = Chain[0];
  const MdDpCut Cut = mdDpCut(G, Id, RatioGpu);
  // A ratio that rounds to one device annotates the node instead.
  if (Cut.allPim())
    return pricePim(G, Id);
  if (Cut.allGpu())
    return Engine.gpuDurationNs(GraphNodeView(G, Id));

  // The micrograph's live nodes in node-id order. extractChain stages each
  // activation the candidate reads through a free GPU Identity (parameters
  // stay parameters), then clones the candidate, which the split kills,
  // and its activation, and appends the GPU sink.
  const Node &N = G.node(Id);
  std::vector<ScheduleTask> Tasks;
  std::vector<TaskValue> Ins;
  for (ValueId In : N.Inputs) {
    const Value &V = G.value(In);
    const int Stage = V.IsParam ? -1 : static_cast<int>(Tasks.size());
    if (!V.IsParam)
      Tasks.push_back(ScheduleTask{});
    Ins.emplace_back(V.Shape, V.Type, V.IsParam, Stage);
  }
  // The activation fuses and the sink is free: both cost nothing on the
  // GPU. What they read is set once the join exists.
  const int Epilogue = Chain.size() > 1 ? static_cast<int>(Tasks.size()) : -1;
  if (Epilogue >= 0)
    Tasks.push_back(ScheduleTask{});
  const int Sink = static_cast<int>(Tasks.size());
  Tasks.push_back(ScheduleTask{});

  // The split's nodes, in the order applyMdDpSplit creates them. Each
  // value it creates has addValue's default type.
  auto Add = [&](OpKind Kind, const OpAttrs &Attrs, Device Dev,
                 std::initializer_list<const TaskValue *> Reads,
                 TensorShape Shape, DataType Type = DataType::F16) {
    PF_ASSERT(Reads.size() <= 3, "split nodes read at most three values");
    TaskValue Out(std::move(Shape), Type, /*IsParam=*/false,
                  static_cast<int>(Tasks.size()));
    const Value *InV[3] = {};
    const Value *OutV = &Out.V;
    ScheduleTask T;
    T.Dev = Dev;
    size_t K = 0;
    for (const TaskValue *R : Reads) {
      InV[K++] = &R->V;
      if (R->Producer >= 0)
        T.Inputs |= bitOf(R->Producer);
    }
    const NodeView View{Kind, &Attrs, {InV, K}, {&OutV, 1}};
    if (Dev == Device::Pim) {
      const PimKernelPlan Plan = Gen.planUntraced(lowerToPimSpec(View));
      T.Ns = Plan.Ns;
      T.GwriteBursts = Plan.Stats.GwriteBursts;
    } else {
      T.Ns = Engine.gpuDurationNs(View);
    }
    Tasks.push_back(T);
    return Out;
  };
  const bool HasBias = N.Inputs.size() > 2;
  const TaskValue &X = Ins[0];
  TaskValue GpuOut, PimOut;
  if (N.Kind == OpKind::Conv2d) {
    // PiecewiseTensor::range hands a part that reads every input row the
    // input itself, and otherwise a Slice of its rows.
    auto Rows = [&](const ConvInputReq &R) {
      if (R.InBegin == 0 && R.InEnd == X.V.Shape.dim(1))
        return X;
      TensorShape S = X.V.Shape;
      S.setDim(1, R.InEnd - R.InBegin);
      return Add(OpKind::Slice, SliceAttrs{1, R.InBegin, R.InEnd},
                 Device::Gpu, {&X}, std::move(S));
    };
    const TaskValue GpuIn = Rows(Cut.GpuRows);
    const TaskValue PimIn = Rows(Cut.PimRows);
    const TensorShape &O = G.value(N.Outputs[0]).Shape;
    auto Part = [&](const TaskValue &In, const ConvInputReq &R, Device Dev,
                    int64_t Height) {
      Conv2dAttrs A = N.conv();
      A.PadTop = R.PadTop;
      A.PadBottom = R.PadBottom;
      const TensorShape S{O.dim(0), Height, O.dim(2), O.dim(3)};
      return HasBias ? Add(OpKind::Conv2d, A, Dev, {&In, &Ins[1], &Ins[2]}, S)
                     : Add(OpKind::Conv2d, A, Dev, {&In, &Ins[1]}, S);
    };
    GpuOut = Part(GpuIn, Cut.GpuRows, Device::Gpu, Cut.Cut);
    PimOut = Part(PimIn, Cut.PimRows, Device::Pim, Cut.Extent - Cut.Cut);
  } else {
    auto SliceOf = [&](const TaskValue &In, int64_t Axis, int64_t Begin,
                       int64_t End) {
      TensorShape S = In.V.Shape;
      S.setDim(Axis, End - Begin);
      return Add(OpKind::Slice, SliceAttrs{Axis, Begin, End}, Device::Gpu,
                 {&In}, std::move(S));
    };
    const TaskValue WGpu = SliceOf(Ins[1], 1, 0, Cut.Cut);
    const TaskValue WPim = SliceOf(Ins[1], 1, Cut.Cut, Cut.Extent);
    TaskValue BGpu, BPim;
    if (HasBias) {
      BGpu = SliceOf(Ins[2], 0, 0, Cut.Cut);
      BPim = SliceOf(Ins[2], 0, Cut.Cut, Cut.Extent);
    }
    GemmAttrs A = N.gemm();
    A.HasBias = HasBias;
    auto Part = [&](const TaskValue &W, const TaskValue &B, Device Dev,
                    int64_t Features) {
      const TensorShape S{X.V.Shape.dim(0), Features};
      return HasBias ? Add(OpKind::Gemm, A, Dev, {&X, &W, &B}, S)
                     : Add(OpKind::Gemm, A, Dev, {&X, &W}, S);
    };
    GpuOut = Part(WGpu, BGpu, Device::Gpu, Cut.Cut);
    PimOut = Part(WPim, BPim, Device::Pim, Cut.Extent - Cut.Cut);
  }
  const Value &Out = G.value(N.Outputs[0]);
  const TaskValue Join = Add(OpKind::Concat, ConcatAttrs{1}, Device::Gpu,
                             {&GpuOut, &PimOut}, Out.Shape, Out.Type);
  if (Epilogue >= 0) {
    Tasks[static_cast<size_t>(Epilogue)].Inputs = bitOf(Join.Producer);
    Tasks[static_cast<size_t>(Sink)].Inputs = bitOf(Epilogue);
  } else {
    Tasks[static_cast<size_t>(Sink)].Inputs = bitOf(Join.Producer);
  }
  return Engine.makespanNs(Tasks);
}

double Profiler::gpuNodeNs(const Graph &G, NodeId Id) {
  const std::vector<NodeId> Chain = sampleChain(G, Id);
  packKey(G, Chain, Mode::Gpu);
  return measure([&] {
    return crossChecked(
        Engine.gpuDurationNs(GraphNodeView(G, Id)), G, Chain,
        [](Graph &Micro, const std::vector<NodeId> &Nodes) {
          Micro.node(Nodes[0]).Dev = Device::Gpu;
          return true;
        });
  });
}

double Profiler::pimNodeNs(const Graph &G, NodeId Id) {
  PF_ASSERT(Config.hasPim(), "PIM profiling without PIM channels");
  const std::vector<NodeId> Chain = sampleChain(G, Id);
  packKey(G, Chain, Mode::Pim);
  return measure([&] {
    return crossChecked(
        pricePim(G, Id), G, Chain,
        [](Graph &Micro, const std::vector<NodeId> &Nodes) {
          Micro.node(Nodes[0]).Dev = Device::Pim;
          return true;
        });
  });
}

double Profiler::mdDpNs(const Graph &G, NodeId Id, double RatioGpu) {
  if (RatioGpu <= 0.0)
    return pimNodeNs(G, Id);
  if (RatioGpu >= 1.0)
    return gpuNodeNs(G, Id);
  const std::vector<NodeId> Chain = sampleChain(G, Id);
  packKey(G, Chain, Mode::MdDp, hundredths(RatioGpu));
  return measure([&] {
    return crossChecked(
        priceMdDp(G, Chain, RatioGpu), G, Chain,
        [RatioGpu](Graph &Micro, const std::vector<NodeId> &Nodes) {
          // A degenerate ratio (rounds to 0/1) annotates the node instead.
          applyMdDpSplit(Micro, Nodes[0], RatioGpu);
          return true;
        });
  });
}

double Profiler::pipelineNs(const Graph &G, const std::vector<NodeId> &Chain,
                            int Stages) {
  packKey(G, Chain, Mode::Pipeline, static_cast<uint64_t>(Stages));
  return measure([&] {
    return micrographNs(
        Engine, G, Chain,
        [Stages](Graph &Micro, const std::vector<NodeId> &Nodes) {
          PipelineSpec Spec;
          Spec.Chain = Nodes;
          Spec.NumStages = Stages;
          return applyPipeline(Micro, Spec);
        });
  });
}

namespace {

/// Profile-log header: the plan artifact's shape, "<magic> <version> bytes
/// <n> checksum <fnv1a64 of the n bytes after the header line>".
const char *kProfileMagic = "pimflow-profile";
const char *kProfileVersion = "v1";

} // namespace

bool Profiler::saveCache(const std::string &Path) const {
  // No memo key prints as a row still in Loaded: measure and loadCache
  // move a row into the memo once a sample prints as it.
  std::vector<std::pair<std::string, double>> Rows(Loaded.begin(),
                                                   Loaded.end());
  Rows.reserve(Rows.size() + Memo.size());
  for (const auto &[K, Ns] : Memo)
    Rows.emplace_back(rowOf(K), Ns);
  std::sort(Rows.begin(), Rows.end());
  // %.17g round-trips doubles exactly through parseDouble, so a search
  // resumed from the cache produces bit-identical plans (and byte-identical
  // plan artifacts) to one that measured everything itself.
  std::string Body;
  for (const auto &[Row, Ns] : Rows) {
    Body += Row;
    Body += '\t';
    appendDouble(Body, Ns);
    Body += '\n';
  }
  std::string Text = kProfileMagic;
  Text += ' ';
  Text += kProfileVersion;
  Text += " bytes ";
  appendUint(Text, Body.size());
  Text += " checksum ";
  Text += fnv1a64Hex(Body);
  Text += '\n';
  Text += Body;
  return writeTextFile(Path, Text);
}

bool Profiler::loadCache(const std::string &Path) {
  const std::optional<std::string> Text = readTextFile(Path);
  // The header authenticates the rows: a missing header, a byte count or
  // checksum that disagrees (a flipped digit that still parses), or a
  // foreign version is a miss.
  const size_t HeaderEnd = Text ? Text->find('\n') : std::string::npos;
  if (HeaderEnd == std::string::npos)
    return false;
  const std::vector<std::string> H = split(Text->substr(0, HeaderEnd), ' ');
  const std::string_view Body = std::string_view(*Text).substr(HeaderEnd + 1);
  if (H.size() != 6 || H[0] != kProfileMagic || H[1] != kProfileVersion ||
      H[2] != "bytes" || H[4] != "checksum" ||
      parseUint(H[3]) != Body.size() || H[5] != fnv1a64Hex(Body))
    return false;
  // Validate every row before touching the memo table: a damaged file is
  // a miss (nothing loaded), never a partial table steering the search.
  // Negative times are legal — failed pipeline probes cache -1.
  std::vector<std::pair<std::string, double>> Rows;
  for (size_t Pos = 0; Pos < Body.size();) {
    const size_t Eol = std::min(Body.find('\n', Pos), Body.size());
    const std::string_view S = trim(Body.substr(Pos, Eol - Pos));
    Pos = Eol + 1;
    if (S.empty())
      continue;
    const size_t Tab = S.rfind('\t');
    if (Tab == std::string_view::npos)
      return false;
    const std::optional<double> Ns = parseDouble(S.substr(Tab + 1));
    if (!Ns)
      return false;
    Rows.emplace_back(S.substr(0, Tab), *Ns);
  }
  for (auto &[Row, Ns] : Rows)
    Loaded[std::move(Row)] = Ns;
  // A loaded row replaces the time of a sample measured under its name.
  for (auto &[K, Ns] : Memo)
    if (auto Row = Loaded.find(rowOf(K)); Row != Loaded.end()) {
      Ns = Row->second;
      Loaded.erase(Row);
    }
  return true;
}
