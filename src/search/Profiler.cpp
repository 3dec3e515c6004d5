//===- search/Profiler.cpp - Candidate profiling ----------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "search/Profiler.h"

#include <algorithm>

#include "obs/Counters.h"
#include "obs/FlightRecorder.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "search/LayerExtract.h"
#include "support/Format.h"
#include "support/StringUtil.h"
#include "transform/MdDpSplitPass.h"
#include "transform/PipelinePass.h"

using namespace pf;

namespace {

/// The candidate layer plus its trailing elementwise epilogue (if any):
/// when the layer stays on the GPU the epilogue fuses for free, but an
/// offloaded layer turns it into a standalone GPU kernel. Profiling the
/// pair makes the samples price that asymmetry.
std::vector<NodeId> withEpilogue(const Graph &G, NodeId Id) {
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

} // namespace

Profiler::Profiler(const SystemConfig &Config)
    : Config(Config), Engine(Config) {
  ConfigSig = formatStr(
      "gc%d/bw%.1f/pc%d/gb%d/lh%d/sg%d/gr%d/mo%d",
      Config.Gpu.MemChannels, Config.Gpu.ChannelBandwidthGBs,
      Config.Pim.Channels, Config.Pim.NumGlobalBuffers,
      Config.Pim.GwriteLatencyHiding ? 1 : 0,
      Config.Codegen.StridedGwrite ? 1 : 0,
      static_cast<int>(Config.Codegen.MaxGranularity),
      Config.MemoryOptimizer ? 1 : 0);
}

std::string Profiler::signature(const Graph &G,
                                const std::vector<NodeId> &Chain,
                                std::string_view Mode) const {
  std::string Sig = ConfigSig;
  Sig += '|';
  Sig += Mode;
  Sig += '|';
  auto Attr = [&Sig](const char *Label, int64_t V) {
    Sig += Label;
    appendInt(Sig, V);
  };
  for (NodeId Id : Chain) {
    const Node &N = G.node(Id);
    Sig += opKindName(N.Kind);
    if (N.Kind == OpKind::Conv2d) {
      // [k<h>.<w> s<h>.<w> p<top>.<bottom>.<left>.<right> g<groups>]
      const Conv2dAttrs &A = N.conv();
      Attr("[k", A.KernelH);
      Attr(".", A.KernelW);
      Attr(" s", A.StrideH);
      Attr(".", A.StrideW);
      Attr(" p", A.PadTop);
      Attr(".", A.PadBottom);
      Attr(".", A.PadLeft);
      Attr(".", A.PadRight);
      Attr(" g", A.Groups);
      Sig += ']';
    }
    for (ValueId In : N.Inputs)
      Sig += G.value(In).Shape.toString();
    Sig += "->";
    Sig += G.value(N.Outputs[0]).Shape.toString();
    Sig += ';';
  }
  return Sig;
}

double Profiler::measure(const std::string &Key,
                         const std::function<double()> &Compute) {
  if (auto It = Memo.find(Key); It != Memo.end()) {
    ++Hits;
    obs::addCounter("profiler.cache_hits");
    obs::flightEvent(obs::FlightEventKind::CacheHit, 0);
    const double Ns = It->second;
    // Hits feed the same profile-latency distribution as fresh measures:
    // the simulated latency is deterministic and identical either way, so
    // the histogram describes the candidates this run evaluated no matter
    // how warm the cache was.
    if (Ns >= 0.0)
      obs::recordMetricWindowed("profiler.profile_sim_ns",
                                obs::TickDomain::WallUs,
                                /*BucketWidth=*/100'000,
                                static_cast<int64_t>(
                                    obs::Tracer::instance().nowUs()),
                                Ns);
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
    obs::recordMetricWindowed("profiler.profile_sim_ns",
                              obs::TickDomain::WallUs,
                              /*BucketWidth=*/100'000,
                              static_cast<int64_t>(
                                  obs::Tracer::instance().nowUs()),
                              Ns);
  obs::flightEvent(obs::FlightEventKind::CacheMiss, 0, -1, -1, Ns);
  Memo.emplace(Key, Ns);
  return Ns;
}

double Profiler::gpuNodeNs(const Graph &G, NodeId Id) {
  const std::vector<NodeId> Chain = withEpilogue(G, Id);
  return measure(signature(G, Chain, "gpu"), [&] {
    ExtractedGraph Micro = extractChain(G, Chain);
    Micro.G.node(Micro.Nodes[0]).Dev = Device::Gpu;
    return Engine.execute(Micro.G).TotalNs;
  });
}

double Profiler::pimNodeNs(const Graph &G, NodeId Id) {
  PF_ASSERT(Config.hasPim(), "PIM profiling without PIM channels");
  const std::vector<NodeId> Chain = withEpilogue(G, Id);
  return measure(signature(G, Chain, "pim"), [&] {
    ExtractedGraph Micro = extractChain(G, Chain);
    Micro.G.node(Micro.Nodes[0]).Dev = Device::Pim;
    return Engine.execute(Micro.G).TotalNs;
  });
}

double Profiler::mdDpNs(const Graph &G, NodeId Id, double RatioGpu) {
  if (RatioGpu <= 0.0)
    return pimNodeNs(G, Id);
  if (RatioGpu >= 1.0)
    return gpuNodeNs(G, Id);
  std::string Mode = "mddp";
  appendFixed(Mode, RatioGpu, 2);
  const std::vector<NodeId> Chain = withEpilogue(G, Id);
  return measure(signature(G, Chain, Mode), [&] {
    ExtractedGraph Micro = extractChain(G, Chain);
    auto Result = applyMdDpSplit(Micro.G, Micro.Nodes[0], RatioGpu);
    // A degenerate ratio (rounds to 0/1) annotated the node instead.
    (void)Result;
    return Engine.execute(Micro.G).TotalNs;
  });
}

double Profiler::pipelineNs(const Graph &G, const std::vector<NodeId> &Chain,
                            int Stages) {
  std::string Mode = "pipe";
  appendInt(Mode, Stages);
  return measure(signature(G, Chain, Mode), [&]() -> double {
    ExtractedGraph Micro = extractChain(G, Chain);
    PipelineSpec Spec;
    Spec.Chain = Micro.Nodes;
    Spec.NumStages = Stages;
    if (!applyPipeline(Micro.G, Spec))
      return -1.0;
    return Engine.execute(Micro.G).TotalNs;
  });
}

double Profiler::chainGpuNs(const Graph &G,
                            const std::vector<NodeId> &Chain) {
  double Total = 0.0;
  for (NodeId Id : Chain)
    Total += gpuNodeNs(G, Id);
  return Total;
}

namespace {

/// Profile-log header: the plan artifact's shape, "<magic> <version> bytes
/// <n> checksum <fnv1a64 of the n bytes after the header line>".
const char *kProfileMagic = "pimflow-profile";
const char *kProfileVersion = "v1";

} // namespace

bool Profiler::saveCache(const std::string &Path) const {
  std::vector<std::pair<std::string, double>> Rows(Memo.begin(), Memo.end());
  std::sort(Rows.begin(), Rows.end());
  // %.17g round-trips doubles exactly through parseDouble, so a search
  // resumed from the cache produces bit-identical plans (and byte-identical
  // plan artifacts) to one that measured everything itself.
  std::string Body;
  for (const auto &[Key, Ns] : Rows) {
    Body += Key;
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
  return obs::writeTextFile(Path, Text);
}

bool Profiler::loadCache(const std::string &Path) {
  const std::optional<std::string> Text = obs::readTextFile(Path);
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
  for (auto &[Key, Ns] : Rows)
    Memo[std::move(Key)] = Ns;
  return true;
}
