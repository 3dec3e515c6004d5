//===- obs/PerfReport.cpp - Unified performance report ----------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/PerfReport.h"

#include "obs/Counters.h"
#include "search/SearchEngine.h"
#include "support/Format.h"
#include "support/Table.h"
#include "support/TextFile.h"

using namespace pf;
using namespace pf::obs;

namespace {

void emitCriticalPath(JsonWriter &W, const Graph &G,
                      const AttributionReport &A) {
  W.key("critical_path").beginObject();
  W.field("length_ns", A.Critical.LengthNs);
  W.field("gpu_ns", A.Critical.GpuNs);
  W.field("pim_ns", A.Critical.PimNs);
  W.key("steps").beginArray();
  for (const CriticalStep &S : A.Critical.Steps) {
    W.beginObject()
        .field("node", G.node(S.Id).Name)
        .field("id", static_cast<int64_t>(S.Id))
        .field("device", deviceName(S.Dev))
        .field("start_ns", S.StartNs)
        .field("end_ns", S.EndNs)
        .field("reason", criticalReasonName(S.Why));
    if (S.Blocker != InvalidNode)
      W.field("blocker", G.node(S.Blocker).Name);
    W.endObject();
  }
  W.endArray().endObject();
}

void emitSlack(JsonWriter &W, const Graph &G, const AttributionReport &A) {
  W.key("slack").beginArray();
  for (const NodeSlack &S : A.Slack) {
    W.beginObject()
        .field("node", G.node(S.Id).Name)
        .field("id", static_cast<int64_t>(S.Id))
        .field("slack_ns", S.SlackNs)
        .field("critical", S.Critical)
        .endObject();
  }
  W.endArray();
}

void emitLanes(JsonWriter &W, const AttributionReport &A) {
  W.key("lanes").beginArray();
  for (const LaneUsage &L : A.Lanes) {
    W.beginObject()
        .field("name", L.Name)
        .field("channel", L.Channel)
        .field("busy_ns", L.BusyNs)
        .field("idle_ns", L.IdleNs)
        .field("utilization", L.utilization())
        .field("intervals", static_cast<int64_t>(L.Busy.size()))
        .field("gaps", static_cast<int64_t>(L.Gaps.size()))
        .endObject();
  }
  W.endArray();
}

void emitPhases(JsonWriter &W, const AttributionReport &A) {
  W.key("pim_phases").beginArray();
  for (const ChannelPhaseCycles &P : A.Phases) {
    // The channel's time-based utilization comes from its lane entry.
    double Util = 0.0;
    for (const LaneUsage &L : A.Lanes)
      if (L.Channel == P.Channel)
        Util = L.utilization();
    W.beginObject()
        .field("channel", P.Channel)
        .field("gwrite_cycles", P.GwriteCycles)
        .field("g_act_cycles", P.GactCycles)
        .field("comp_cycles", P.CompCycles)
        .field("readres_cycles", P.ReadResCycles)
        .field("retry_cycles", P.RetryCycles)
        .field("stall_cycles", P.StallCycles)
        .field("busy_cycles", P.busyCycles())
        .field("bank_busy_cycles", P.bankBusyCycles())
        .field("utilization", Util)
        .endObject();
  }
  W.endArray();
}

void emitDecisions(JsonWriter &W, const CompileResult &R) {
  W.key("decisions").beginArray();
  for (const SearchDecision &D : R.Plan.Decisions) {
    W.beginObject()
        .field("node", R.Transformed.node(D.Id).Name)
        .field("id", static_cast<int64_t>(D.Id))
        .field("pim_candidate", D.pimCandidate())
        .field("chosen_mode", segmentModeName(D.ChosenMode))
        .field("chosen_ratio_gpu", D.ChosenRatioGpu)
        .field("chosen_ns", D.ChosenNs)
        .field("gpu_only_ns", D.gpuOnlyNs())
        .field("gain_ns", D.gainNs());
    W.key("candidates").beginArray();
    for (const CandidateOption &C : D.Candidates) {
      W.beginObject()
          .field("mode", segmentModeName(C.Mode))
          .field("ratio_gpu", C.RatioGpu)
          .field("ns", C.Ns)
          .endObject();
    }
    W.endArray().endObject();
  }
  W.endArray();
}

} // namespace

std::string pf::obs::renderPerfReport(const CompileResult &R,
                                      const AttributionReport &A) {
  const ExecutionStats S = computeStats(R);

  JsonWriter W;
  W.beginObject();
  W.field("schema_version", PerfReportSchemaVersion);
  W.field("kind", "pimflow-perf-report");
  W.field("model", R.Transformed.name());
  W.field("policy", policyName(R.Policy));
  W.field("end_to_end_ns", R.endToEndNs());
  W.field("energy_j", R.energyJ());
  W.field("conv_layer_ns", R.ConvLayerNs);
  W.field("fc_layer_ns", R.FcLayerNs);

  W.key("timeline")
      .beginObject()
      .field("total_ns", R.Schedule.TotalNs)
      .field("gpu_busy_ns", R.Schedule.GpuBusyNs)
      .field("pim_busy_ns", R.Schedule.PimBusyNs)
      .field("energy_j", R.Schedule.EnergyJ)
      .field("contention_slowdown", R.Schedule.ContentionSlowdown)
      .field("scheduled_nodes",
             static_cast<int64_t>(R.Schedule.Nodes.size()))
      .endObject();

  emitCriticalPath(W, R.Transformed, A);
  emitSlack(W, R.Transformed, A);
  emitLanes(W, A);
  emitPhases(W, A);
  emitDecisions(W, R);

  int Counts[4] = {};
  for (const SegmentPlan &Seg : R.Plan.Segments)
    ++Counts[static_cast<int>(Seg.Mode)];
  W.key("segments")
      .beginObject()
      .field("gpu", Counts[0])
      .field("pim", Counts[1])
      .field("md_dp", Counts[2])
      .field("pipeline", Counts[3])
      .endObject();

  W.key("stats")
      .beginObject()
      .field("gpu_kernels", S.GpuKernels)
      .field("pim_kernels", S.PimKernels)
      .field("fused_or_free_nodes", S.FusedOrFreeNodes)
      .field("gpu_busy_fraction", S.GpuBusyFraction)
      .field("pim_busy_fraction", S.PimBusyFraction)
      .field("pim_gwrite_bursts", S.PimGwriteBursts)
      .field("pim_g_acts", S.PimGActs)
      .field("pim_comp_columns", S.PimCompColumns)
      .field("pim_read_res", S.PimReadRes)
      .field("pim_weight_bytes", S.PimWeightBytes)
      .field("gpu_weight_bytes", S.GpuWeightBytes)
      .endObject();

  if (const auto &Rec = R.Recovery) {
    W.key("recovery")
        .beginObject()
        .field("degraded", Rec->Degraded)
        .field("dead_channels", Rec->DeadChannels)
        .field("stalled_channels", Rec->StalledChannels)
        .field("surviving_channels", Rec->SurvivingChannels)
        .field("nodes_remapped", Rec->NodesRemapped)
        .field("node_fallbacks", Rec->NodesFellBack)
        .field("transient_retries", Rec->TransientRetries)
        .endObject();
  }

  emitObsSections(W);

  W.endObject();
  return W.take();
}

void pf::obs::emitObsSections(JsonWriter &W) {
  // Every snapshot is sorted by name, so two reports of the same run are
  // byte-identical.
  const Registry &Reg = activeRegistry();
  W.key("counters").beginObject();
  for (const auto &[Name, Value] : Reg.counterSnapshot())
    W.field(Name, Value);
  W.endObject();

  // Schema v2: the streaming-metric section.
  W.key("metrics").beginObject();
  W.key("histograms").beginObject();
  for (const auto &[Name, Q] : Reg.histogramSnapshot()) {
    W.key(Name)
        .beginObject()
        .field("count", Q.Count)
        .field("sum", Q.Sum)
        .field("min", Q.Min)
        .field("max", Q.Max)
        .field("mean", Q.mean())
        .field("p50", Q.P50)
        .field("p90", Q.P90)
        .field("p99", Q.P99)
        .field("p999", Q.P999)
        .field("rel_error_bound", Q.RelErrorBound)
        .endObject();
  }
  W.endObject();
  W.endObject();
}

bool pf::obs::writePerfReport(const CompileResult &R,
                              const AttributionReport &A,
                              const std::string &Path) {
  return writeTextFile(Path, renderPerfReport(R, A));
}

namespace {

std::string strOr(const JsonValue &V, const std::string &Key,
                  const std::string &Default) {
  const JsonValue *M = V.find(Key);
  return M && M->isString() ? M->Str : Default;
}

std::string fmtNs(double Ns) { return formatStr("%.1f", Ns); }

} // namespace

std::string pf::obs::renderPerfReportText(const JsonValue &Report) {
  std::string Out;
  Out += formatStr("perf report (schema v%d): model=%s policy=%s\n",
                   static_cast<int>(Report.numberOr("schema_version", 0)),
                   strOr(Report, "model", "?").c_str(),
                   strOr(Report, "policy", "?").c_str());
  Out += formatStr(
      "end-to-end %.1f ns, energy %.3e J, conv %.1f ns, fc %.1f ns\n",
      Report.numberOr("end_to_end_ns", 0), Report.numberOr("energy_j", 0),
      Report.numberOr("conv_layer_ns", 0), Report.numberOr("fc_layer_ns", 0));

  if (const JsonValue *CP = Report.find("critical_path")) {
    Out += formatStr(
        "\ncritical path: %.1f ns (gpu %.1f ns, pim %.1f ns)\n",
        CP->numberOr("length_ns", 0), CP->numberOr("gpu_ns", 0),
        CP->numberOr("pim_ns", 0));
    if (const JsonValue *Steps = CP->find("steps"); Steps && Steps->isArray()) {
      Table T;
      T.setHeader({"#", "node", "device", "start ns", "end ns", "reason",
                   "blocker"});
      int I = 0;
      for (const JsonValue &S : Steps->Array)
        T.addRow({formatStr("%d", I++), strOr(S, "node", "?"),
                  strOr(S, "device", "?"), fmtNs(S.numberOr("start_ns", 0)),
                  fmtNs(S.numberOr("end_ns", 0)), strOr(S, "reason", "?"),
                  strOr(S, "blocker", "-")});
      Out += T.render();
    }
  }

  if (const JsonValue *Lanes = Report.find("lanes");
      Lanes && Lanes->isArray()) {
    Out += "\nlane utilization:\n";
    Table T;
    T.setHeader({"lane", "busy ns", "idle ns", "util", "gaps"});
    for (const JsonValue &L : Lanes->Array)
      T.addRow({strOr(L, "name", "?"), fmtNs(L.numberOr("busy_ns", 0)),
                fmtNs(L.numberOr("idle_ns", 0)),
                formatStr("%.1f%%", 100.0 * L.numberOr("utilization", 0)),
                formatStr("%d", static_cast<int>(L.numberOr("gaps", 0)))});
    Out += T.render();
  }

  if (const JsonValue *Phases = Report.find("pim_phases");
      Phases && Phases->isArray() && !Phases->Array.empty()) {
    Out += "\npim command phases (cycles):\n";
    Table T;
    T.setHeader({"channel", "gwrite", "g_act", "comp", "readres", "retry",
                 "stall", "busy"});
    for (const JsonValue &P : Phases->Array)
      T.addRow({formatStr("%d", static_cast<int>(P.numberOr("channel", 0))),
                formatStr("%.0f", P.numberOr("gwrite_cycles", 0)),
                formatStr("%.0f", P.numberOr("g_act_cycles", 0)),
                formatStr("%.0f", P.numberOr("comp_cycles", 0)),
                formatStr("%.0f", P.numberOr("readres_cycles", 0)),
                formatStr("%.0f", P.numberOr("retry_cycles", 0)),
                formatStr("%.0f", P.numberOr("stall_cycles", 0)),
                formatStr("%.0f", P.numberOr("busy_cycles", 0))});
    Out += T.render();
  }

  Out += renderPerfReportMetricsText(Report);

  if (const JsonValue *Decisions = Report.find("decisions");
      Decisions && Decisions->isArray() && !Decisions->Array.empty()) {
    Out += "\nsearch decisions:\n";
    Table T;
    T.setHeader({"node", "chosen", "ratio gpu", "chosen ns", "gpu-only ns",
                 "gain ns", "options"});
    for (const JsonValue &D : Decisions->Array) {
      const JsonValue *Cands = D.find("candidates");
      T.addRow({strOr(D, "node", "?"), strOr(D, "chosen_mode", "?"),
                formatStr("%.2f", D.numberOr("chosen_ratio_gpu", 1.0)),
                fmtNs(D.numberOr("chosen_ns", 0)),
                fmtNs(D.numberOr("gpu_only_ns", 0)),
                fmtNs(D.numberOr("gain_ns", 0)),
                formatStr("%d", Cands && Cands->isArray()
                                    ? static_cast<int>(Cands->Array.size())
                                    : 0)});
    }
    Out += T.render();
  }
  return Out;
}

std::string pf::obs::renderPerfReportMetricsText(const JsonValue &Report) {
  std::string Out;
  const JsonValue *M = Report.find("metrics");
  if (!M || !M->isObject())
    return Out;

  if (const JsonValue *H = M->find("histograms");
      H && H->isObject() && !H->Object.empty()) {
    Out += "\nlatency histograms (bounded-error quantiles):\n";
    Table T;
    T.setHeader({"histogram", "count", "mean", "p50", "p90", "p99", "p999",
                 "max", "err"});
    for (const auto &[Name, Q] : H->Object)
      T.addRow({Name, formatStr("%.0f", Q.numberOr("count", 0)),
                formatStr("%.1f", Q.numberOr("mean", 0)),
                formatStr("%.1f", Q.numberOr("p50", 0)),
                formatStr("%.1f", Q.numberOr("p90", 0)),
                formatStr("%.1f", Q.numberOr("p99", 0)),
                formatStr("%.1f", Q.numberOr("p999", 0)),
                formatStr("%.1f", Q.numberOr("max", 0)),
                formatStr("%.2g", Q.numberOr("rel_error_bound", 0))});
    Out += T.render();
  }
  return Out;
}
