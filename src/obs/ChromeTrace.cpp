//===- obs/ChromeTrace.cpp - Chrome trace-event JSON export -----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/ChromeTrace.h"

#include <algorithm>
#include <set>

#include "obs/Json.h"
#include "support/Format.h"

using namespace pf;
using namespace pf::obs;

void pf::obs::emitProcessName(JsonWriter &W, int Pid,
                              const std::string &Name) {
  W.beginObject()
      .field("name", "process_name")
      .field("ph", "M")
      .field("pid", Pid)
      .field("tid", 0)
      .key("args")
      .beginObject()
      .field("name", Name)
      .endObject()
      .endObject();
}

void pf::obs::emitThreadName(JsonWriter &W, int Pid, int Tid,
                             const std::string &Name) {
  W.beginObject()
      .field("name", "thread_name")
      .field("ph", "M")
      .field("pid", Pid)
      .field("tid", Tid)
      .key("args")
      .beginObject()
      .field("name", Name)
      .endObject()
      .endObject();
}

namespace {

constexpr int CompilePid = 1;
constexpr int ExecutionPid = 2;

void emitCompleteEvent(JsonWriter &W, int Pid, int Tid,
                       const std::string &Name, const std::string &Cat,
                       double TsUs, double DurUs) {
  W.beginObject()
      .field("name", Name)
      .field("cat", Cat)
      .field("ph", "X")
      .field("pid", Pid)
      .field("tid", Tid)
      .field("ts", TsUs)
      .field("dur", DurUs)
      .endObject();
}

void emitCompileSpans(JsonWriter &W,
                      const std::vector<TraceEvent> &CompileSpans) {
  emitProcessName(W, CompilePid, "pimflow compile (wall clock)");
  std::set<uint32_t> Tids;
  for (const TraceEvent &E : CompileSpans)
    Tids.insert(E.Tid);
  for (uint32_t Tid : Tids)
    emitThreadName(W, CompilePid, static_cast<int>(Tid),
                   Tid == 0 ? "main" : formatStr("worker %u", Tid));
  for (const TraceEvent &E : CompileSpans)
    emitCompleteEvent(W, CompilePid, static_cast<int>(E.Tid), E.Name,
                      E.Category, E.StartUs, E.DurUs);
}

/// Execution tids: 0 = the GPU lane, 1 + k = PIM channel k.
int channelTid(int Channel) { return 1 + Channel; }

void emitExecution(JsonWriter &W, const Graph &G, const Timeline &TL) {
  emitProcessName(W, ExecutionPid, "execution (simulated)");
  emitThreadName(W, ExecutionPid, 0, "GPU lane");

  // Each offloaded node occupies channels 0..usedChannels()-1 of its
  // kernel record's mapping.
  int UsedChannels = 0;
  for (const PimKernelRecord &K : TL.Kernels)
    UsedChannels = std::max(UsedChannels, K.usedChannels());
  for (int C = 0; C < UsedChannels; ++C)
    emitThreadName(W, ExecutionPid, channelTid(C),
                   formatStr("PIM ch %d", C));

  for (const NodeSchedule &S : TL.Nodes) {
    if (S.Dev == Device::Pim || S.durationNs() <= 0.0)
      continue;
    emitCompleteEvent(W, ExecutionPid, 0, G.node(S.Id).Name, "gpu",
                      S.StartNs / 1e3, S.durationNs() / 1e3);
  }
  for (const PimKernelRecord &K : TL.Kernels) {
    const NodeSchedule &S = TL.scheduleOf(K.Id);
    const Node &N = G.node(K.Id);
    const std::string Mapping = K.describeMapping();
    for (int C = 0; C < K.usedChannels(); ++C) {
      W.beginObject()
          .field("name", N.Name)
          .field("cat", "pim")
          .field("ph", "X")
          .field("pid", ExecutionPid)
          .field("tid", channelTid(C))
          .field("ts", S.StartNs / 1e3)
          .field("dur", S.durationNs() / 1e3)
          .key("args")
          .beginObject()
          .field("mapping", Mapping)
          .field("op", opKindName(N.Kind))
          .endObject()
          .endObject();
    }
  }
}

std::string finishDocument(JsonWriter &W) {
  W.endArray()
      .field("displayTimeUnit", "ns")
      .endObject();
  return W.take();
}

JsonWriter startDocument() {
  JsonWriter W;
  W.beginObject().key("traceEvents").beginArray();
  return W;
}

} // namespace

std::string
pf::obs::renderChromeTrace(const Graph &G, const Timeline &TL,
                           const std::vector<TraceEvent> &CompileSpans) {
  JsonWriter W = startDocument();
  emitCompileSpans(W, CompileSpans);
  emitExecution(W, G, TL);
  return finishDocument(W);
}

std::string pf::obs::renderChromeTrace(const CompileResult &R) {
  return renderChromeTrace(R.Transformed, R.Schedule,
                           Tracer::instance().snapshot());
}

std::string
pf::obs::renderCompileTrace(const std::vector<TraceEvent> &CompileSpans) {
  JsonWriter W = startDocument();
  emitCompileSpans(W, CompileSpans);
  return finishDocument(W);
}

bool pf::obs::writeChromeTrace(const CompileResult &R,
                               const std::string &Path) {
  return writeTextFile(Path, renderChromeTrace(R));
}
