//===- tools/pimflow.cpp - Artifact-style command-line driver ---*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level driver mirroring the artifact's `pimflow` script
/// (Appendix A.5's three-step workflow):
///
///   Step 1: profile candidate layers / pipelining subgraphs
///     pimflow profile <net> -t=split
///     pimflow profile <net> -t=pipeline
///   Step 2: compute the optimal graph from the profiles
///     pimflow solve <net>
///   Step 3: execute the transformed model
///     pimflow run <net> [--gpu_only] [--policy=<mech>]
///
/// Profiling results persist in a metadata log (profile_<net>.tsv in
/// --dir, default '.') so later steps reuse them, exactly as the artifact
/// stores layerwise/pipeline measurements. Hardware knobs:
///   --pim-channels=N  --stages=N  --autotune  --no-memopt
/// Serve knob:
///   --jobs=N  threads re-executing admitted requests (default: all
///             hardware threads); every other mode runs on one thread
/// Verification knobs:
///   --verify        verify input/loaded graphs and every pass boundary;
///                   diagnostics go to stderr and exit non-zero
///   --differential  cross-run the interpreter on original vs. transformed
///                   graphs at each pass boundary (slow; debugging aid)
///   --max-errors=N  cap collected diagnostics (default 64)
/// Fault-injection knobs (robustness testing):
///   --faults=<spec>   inject PIM channel faults; spec is comma-separated
///                     dead:<ch> | stall:<ch> | slow:<ch>:<mult> |
///                     comp:<ch>:<ord>:<fails> | readres:<ch>:<ord>:<fails>,
///                     or the literal 'chaos' for a seeded random schedule
///   --fault-seed=N    seed for --faults=chaos (default 0)
///   --max-retries=N   retry budget for transient command faults (default 3)
///   --pim-floor=N     minimum surviving PIM channels before whole-graph
///                     GPU fallback (default 1)
///
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/PimFlow.h"
#include "core/Report.h"
#include "plan/PlanArtifact.h"
#include "runtime/ExecutionEngine.h"
#include "runtime/Recovery.h"
#include "codegen/CommandGenerator.h"
#include "pim/TraceIO.h"
#include "ir/GraphPrinter.h"
#include "ir/GraphSerializer.h"
#include "ir/Verifier.h"
#include "models/Zoo.h"
#include "obs/Anomaly.h"
#include "obs/Attribution.h"
#include "obs/ChromeTrace.h"
#include "obs/Counters.h"
#include "obs/FlightRecorder.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/PerfReport.h"
#include "obs/Scope.h"
#include "obs/Trace.h"
#include "serve/LoadGen.h"
#include "serve/ServeReport.h"
#include "serve/Server.h"
#include "support/Format.h"
#include "support/Log.h"
#include "support/StringUtil.h"
#include "support/Table.h"
#include "transform/PatternMatch.h"

using namespace pf;

namespace {

struct CliOptions {
  std::string Mode;            // profile | solve | run | trace | compile
  std::string ProfileTarget;   // split | pipeline
  std::string Net = "toy";
  bool NetSet = false; // a positional net was given explicitly
  std::string Dir = ".";
  OffloadPolicy Policy = OffloadPolicy::PimFlow;
  std::string GraphFile; // run --graph=<file>: skip search, execute.
  std::string TraceOut;  // --trace-out=<file>: Chrome trace-event JSON.
  std::string PerfReport; // --perf-report=<file>: attribution report JSON.
  std::string ReportFile; // `pimflow report <file>`: report to render.
  std::string MetricsOut; // --metrics-out=<file>: Prometheus exposition.
  std::string FlightDump; // --flight-dump=<file>: flight-recorder dump.
  std::string PlanOut;    // compile --plan-out=<file>: plan artifact.
  std::string PlanIn;     // run --plan=<file>: replay a plan, skip search.
  std::vector<std::string> ServeNets; // serve <net>...: the tenant list.
  std::string Requests;   // serve --requests=<spec>: load-generator spec.
  std::string SummaryOut; // serve --summary-out=<file>: golden summary.
  std::string TraceSample; // serve --trace-sample=<all|tail|tail:K>.
  int ReportRequest = -1; // report --request=<id>: one request's segments.
  int MaxInflight = 4;    // serve --max-inflight=N admission bound.
  int MaxQueue = 8;       // serve --max-queue=N wait-line bound.
  int ChannelPool = 0;    // serve --channel-pool=N arbitrated PIM group.
  int DefaultDeadlineUs = 0; // serve --default-deadline-us=N (0 = none).
  int RetryBudget = 256;     // serve --retry-budget=N mid-run retry cap.
  int BreakerThreshold = 2;  // serve --breaker-threshold=K trip point.
  int BreakerCooldownUs = 500; // serve --breaker-cooldown-us=N probe gap.
  int Verbose = 0;
  bool GpuOnly = false;
  bool Stats = false;
  bool Verify = false; // --verify: run the graph verifier on inputs/outputs.
  bool ReportMetrics = false; // report --metrics: metrics section only.
  bool NoRecovery = false; // --no-recovery: faults bypass the ladder.
  std::optional<int> Jobs; // serve --jobs=N re-run workers (unset: all).
  PimFlowOptions Flow;

  bool observed() const {
    return !TraceOut.empty() || !PerfReport.empty() || !MetricsOut.empty();
  }
};

void usage() {
  std::fprintf(
      stderr,
      "usage: pimflow <profile|solve|run|trace> <net|graph-file> "
      "[-t=<split|pipeline>]   (net may be a .graph path)\n"
      "       pimflow compile <net> --plan-out=<file> [--plan-cache-dir=<"
      "dir>]\n"
      "       pimflow run <net> --plan=<file>   (replay a compiled plan; "
      "search is skipped)\n"
      "       pimflow report <perf-report.json> [--metrics] "
      "[--request=<id>]   (render a saved report)\n"
      "       pimflow serve <net>... --requests=<spec>   (closed-loop "
      "multi-tenant serving)\n"
      "               serve spec keys: count:N,seed:S,mean-gap-us:G,"
      "batch:B1|B2|...,deadline-us:D\n"
      "               [--max-inflight=N] [--max-queue=N] "
      "[--channel-pool=N] [--summary-out=<file>]\n"
      "               [--default-deadline-us=N] [--retry-budget=N] "
      "[--breaker-threshold=K] [--breaker-cooldown-us=N]\n"
      "               [--trace-sample=<all|tail|tail:K>]   (which requests "
      "keep full traces / report segments)\n"
      "               [--jobs=N]   (threads re-executing admitted requests; "
      "default all cores)\n"
      "               (serve --faults also takes windowed outages: "
      "dead@<t1>..<t2>:<ch> in virtual us)\n"
      "               [--gpu_only] [--policy=<mechanism>] [--dir=<path>]\n"
      "               [--graph=<solved.pimflow.graph>]\n"
      "               [--pim-channels=N] [--stages=N] [--autotune] "
      "[--no-memopt] [--stats]\n"
      "               [--verify] [--differential] [--max-errors=N]\n"
      "               [--faults=<spec|chaos>] [--fault-seed=N] "
      "[--max-retries=N] [--pim-floor=N] [--no-recovery]\n"
      "               [--trace-out=<file>] [--perf-report=<file>] "
      "[-v|-vv]\n"
      "               [--metrics-out=<file>] [--flight-dump=<file>]\n"
      "nets: efficientnet-v1-b0 mobilenet-v2 mnasnet-1.0 resnet-50 vgg-16 "
      "bert toy\n"
      "mechanisms: Baseline Newton+ Newton++ PIMFlow-md PIMFlow-pl "
      "PIMFlow\n");
}

/// Parses the value of an `--opt=N` argument as a bounded integer.
/// Malformed or out-of-range values become cli.bad-option diagnostics
/// instead of std::atoi's silent 0 (which used to configure 0 PIM channels
/// from `--pim-channels=abc` and run the whole flow on garbage).
bool parseIntOption(const std::string &Arg, const std::string &Val,
                    int64_t Min, int64_t Max, int &Out,
                    DiagnosticEngine &DE) {
  const std::string Name = Arg.substr(0, Arg.find('='));
  const std::optional<int64_t> Parsed = parseInt(Val);
  if (!Parsed) {
    DE.error(DiagCode::BadOption, Name,
             formatStr("expects an integer, got '%s'", Val.c_str()));
    return false;
  }
  if (*Parsed < Min || *Parsed > Max) {
    DE.error(DiagCode::BadOption, Name,
             formatStr("value %lld is outside the legal range [%lld, %lld]",
                       static_cast<long long>(*Parsed),
                       static_cast<long long>(Min),
                       static_cast<long long>(Max)));
    return false;
  }
  Out = static_cast<int>(*Parsed);
  return true;
}

/// Parses a `--policy=` value. A misspelled mechanism is a cli.bad-option
/// error naming the accepted spellings, never a silent fallback.
bool parsePolicyOption(const std::string &Val, OffloadPolicy &Out,
                       DiagnosticEngine &DE) {
  std::string Names;
  for (OffloadPolicy P : allPolicies()) {
    if (Val == policyName(P)) {
      Out = P;
      return true;
    }
    Names += Names.empty() ? "" : ", ";
    Names += policyName(P);
  }
  DE.error(DiagCode::BadOption, "--policy",
           formatStr("unknown mechanism '%s' (expected one of: %s)",
                     Val.c_str(), Names.c_str()));
  return false;
}

bool parseArgs(int Argc, char **Argv, CliOptions &O, DiagnosticEngine &DE) {
  bool Ok = true;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    auto Val = [&Arg]() { return Arg.substr(Arg.find('=') + 1); };
    if (startsWith(Arg, "-t="))
      O.ProfileTarget = Val();
    else if (startsWith(Arg, "--dir="))
      O.Dir = Val();
    else if (startsWith(Arg, "--policy="))
      Ok &= parsePolicyOption(Val(), O.Policy, DE);
    else if (Arg == "--gpu_only")
      O.GpuOnly = true;
    else if (Arg == "--stats")
      O.Stats = true;
    else if (startsWith(Arg, "--graph="))
      O.GraphFile = Val();
    else if (startsWith(Arg, "--trace-out="))
      O.TraceOut = Val();
    else if (startsWith(Arg, "--perf-report="))
      O.PerfReport = Val();
    else if (startsWith(Arg, "--metrics-out="))
      O.MetricsOut = Val();
    else if (startsWith(Arg, "--flight-dump="))
      O.FlightDump = Val();
    else if (startsWith(Arg, "--plan-out="))
      O.PlanOut = Val();
    else if (startsWith(Arg, "--plan="))
      O.PlanIn = Val();
    else if (startsWith(Arg, "--plan-cache-dir="))
      O.Flow.PlanCacheDir = Val();
    else if (startsWith(Arg, "--requests="))
      O.Requests = Val();
    else if (startsWith(Arg, "--summary-out="))
      O.SummaryOut = Val();
    else if (startsWith(Arg, "--trace-sample="))
      O.TraceSample = Val();
    else if (startsWith(Arg, "--request="))
      Ok &= parseIntOption(Arg, Val(), 0, 1 << 30, O.ReportRequest, DE);
    else if (startsWith(Arg, "--max-inflight="))
      Ok &= parseIntOption(Arg, Val(), 1, 4096, O.MaxInflight, DE);
    else if (startsWith(Arg, "--max-queue="))
      Ok &= parseIntOption(Arg, Val(), 0, 1 << 20, O.MaxQueue, DE);
    else if (startsWith(Arg, "--channel-pool="))
      Ok &= parseIntOption(Arg, Val(), 1, 4096, O.ChannelPool, DE);
    else if (startsWith(Arg, "--default-deadline-us="))
      Ok &= parseIntOption(Arg, Val(), 0, 1'000'000'000,
                           O.DefaultDeadlineUs, DE);
    else if (startsWith(Arg, "--retry-budget="))
      Ok &= parseIntOption(Arg, Val(), 0, 1 << 20, O.RetryBudget, DE);
    else if (startsWith(Arg, "--breaker-threshold="))
      Ok &= parseIntOption(Arg, Val(), 0, 1 << 20, O.BreakerThreshold, DE);
    else if (startsWith(Arg, "--breaker-cooldown-us="))
      Ok &= parseIntOption(Arg, Val(), 1, 1'000'000'000,
                           O.BreakerCooldownUs, DE);
    else if (Arg == "--metrics")
      O.ReportMetrics = true;
    else if (Arg == "--no-recovery")
      O.NoRecovery = true;
    else if (Arg == "-v" || Arg == "--verbose")
      O.Verbose = std::max(O.Verbose, 1);
    else if (Arg == "-vv")
      O.Verbose = 2;
    else if (startsWith(Arg, "--pim-channels="))
      // SystemConfig::dual requires 0 < PimChannels < TotalChannels.
      Ok &= parseIntOption(Arg, Val(), 1, O.Flow.TotalChannels - 1,
                           O.Flow.PimChannels, DE);
    else if (startsWith(Arg, "--stages="))
      Ok &= parseIntOption(Arg, Val(), 2, 64, O.Flow.PipelineStages, DE);
    else if (startsWith(Arg, "--jobs=")) {
      // 0 = all hardware threads.
      int Jobs = 0;
      Ok &= parseIntOption(Arg, Val(), 0, 4096, Jobs, DE);
      O.Jobs = Jobs;
    } else if (startsWith(Arg, "--max-errors="))
      Ok &= parseIntOption(Arg, Val(), 1, 1 << 20, O.Flow.MaxVerifyErrors,
                           DE);
    else if (startsWith(Arg, "--faults="))
      O.Flow.FaultSpec = Val();
    else if (startsWith(Arg, "--fault-seed=")) {
      const std::optional<int64_t> Seed = parseInt(Val());
      if (!Seed || *Seed < 0) {
        DE.error(DiagCode::BadOption, "--fault-seed",
                 formatStr("expects a non-negative integer, got '%s'",
                           Val().c_str()));
        Ok = false;
      } else {
        O.Flow.FaultSeed = static_cast<uint64_t>(*Seed);
      }
    } else if (startsWith(Arg, "--max-retries="))
      Ok &= parseIntOption(Arg, Val(), 0, 100, O.Flow.MaxRetries, DE);
    else if (startsWith(Arg, "--pim-floor="))
      Ok &= parseIntOption(Arg, Val(), 0, 4096, O.Flow.PimFloor, DE);
    else if (Arg == "--verify") {
      O.Verify = true;
      O.Flow.VerifyPasses = true;
    } else if (Arg == "--differential")
      O.Flow.DifferentialCheck = true;
    else if (Arg == "--autotune")
      O.Flow.AutoTuneRatios = true;
    else if (Arg == "--no-memopt")
      O.Flow.MemoryOptimizer = false;
    else if (O.Mode.empty() && !startsWith(Arg, "-") &&
             (Arg == "profile" || Arg == "solve" || Arg == "run" ||
              Arg == "trace" || Arg == "compile" || Arg == "report" ||
              Arg == "serve"))
      O.Mode = Arg;
    else if (O.Mode == "report" && O.ReportFile.empty() &&
             !startsWith(Arg, "-"))
      O.ReportFile = Arg;
    else if (O.Mode == "serve" && !startsWith(Arg, "-"))
      // serve admits a tenant LIST: every positional is another model.
      O.ServeNets.push_back(Arg);
    else if (!O.Mode.empty() && O.Mode != "report" && !O.NetSet &&
             !startsWith(Arg, "-")) {
      // Positional net: a zoo model name or a serialized graph file.
      O.Net = Arg;
      O.NetSet = true;
    } else {
      DE.error(DiagCode::BadOption, Arg, "unknown argument");
      Ok = false;
    }
  }
  if (O.Mode != "profile" && O.Mode != "solve" && O.Mode != "run" &&
      O.Mode != "trace" && O.Mode != "compile" && O.Mode != "report" &&
      O.Mode != "serve") {
    DE.error(DiagCode::BadOption, "<verb>",
             "must be profile, solve, run, trace, compile, report or serve");
    Ok = false;
  }
  if (O.Mode == "serve") {
    // With no tenant given, serve the default net so smoke runs stay
    // one-liners.
    if (O.ServeNets.empty())
      O.ServeNets.push_back(O.Net);
  } else if (!O.Requests.empty() || !O.SummaryOut.empty() ||
             !O.TraceSample.empty()) {
    DE.error(DiagCode::BadOption, "--requests",
             "serve-only flags (--requests/--summary-out/--trace-sample) "
             "require the serve verb");
    Ok = false;
  }
  if (O.Jobs && O.Mode != "serve") {
    DE.error(DiagCode::BadOption, "--jobs",
             "sizes serve's request re-run workers and requires the serve "
             "verb (every other mode runs on one thread)");
    Ok = false;
  }
  if (O.Mode == "compile" &&
      (!O.TraceOut.empty() || !O.PerfReport.empty())) {
    DE.error(DiagCode::BadOption, "compile",
             "runs no execution, so --trace-out/--perf-report have nothing "
             "to export (use run, or serve for request traces)");
    Ok = false;
  }
  if (O.Mode == "profile" && !O.PerfReport.empty()) {
    DE.error(DiagCode::BadOption, "profile",
             "runs no execution, so --perf-report has nothing to report "
             "(use run)");
    Ok = false;
  }
  if (O.Mode == "report" &&
      (O.observed() || !O.FlightDump.empty())) {
    DE.error(DiagCode::BadOption, "report",
             "renders an existing document; output flags (--trace-out/"
             "--perf-report/--metrics-out/--flight-dump) are meaningless "
             "here");
    Ok = false;
  }
  if (O.ReportRequest >= 0 && O.Mode != "report") {
    DE.error(DiagCode::BadOption, "--request",
             "is only meaningful with report (render one serve request)");
    Ok = false;
  }
  if (O.ReportRequest >= 0 && O.ReportMetrics) {
    DE.error(DiagCode::BadOption, "--request",
             "cannot be combined with --metrics (pick one view)");
    Ok = false;
  }
  if (O.Mode == "compile" && O.PlanOut.empty() &&
      O.Flow.PlanCacheDir.empty()) {
    DE.error(DiagCode::BadOption, "compile",
             "expects --plan-out=<file> and/or --plan-cache-dir=<dir>");
    Ok = false;
  }
  if (!O.PlanIn.empty() && O.Mode != "run") {
    DE.error(DiagCode::BadOption, "--plan",
             "is only meaningful with run (replay a compiled plan)");
    Ok = false;
  }
  if (!O.PlanIn.empty() && !O.GraphFile.empty()) {
    DE.error(DiagCode::BadOption, "--plan",
             "cannot be combined with --graph (a solved graph already "
             "embeds its plan)");
    Ok = false;
  }
  if (O.Mode == "report" && O.ReportFile.empty()) {
    DE.error(DiagCode::BadOption, "report",
             "expects the path of a --perf-report JSON file");
    Ok = false;
  }
  if (O.Mode == "profile" && O.ProfileTarget != "split" &&
      O.ProfileTarget != "pipeline") {
    DE.error(DiagCode::BadOption, "-t", "must be split or pipeline");
    Ok = false;
  }
  // The spec is checked here, once for every verb, so a malformed one
  // fails before any work runs.
  if (!O.Flow.FaultSpec.empty()) {
    if (O.Mode == "compile" || O.Mode == "profile" || O.Mode == "report") {
      DE.error(DiagCode::BadOption, "--faults",
               formatStr("%s executes nothing, so there is no run to "
                         "inject faults into (use run or serve)",
                         O.Mode.c_str()));
      Ok = false;
    } else if (O.Flow.FaultSpec != "chaos" &&
               !FaultModel::parse(O.Flow.FaultSpec, DE)) {
      Ok = false;
    }
  }
  if (O.NoRecovery && (O.GraphFile.empty() || O.Flow.FaultSpec.empty())) {
    DE.error(DiagCode::BadOption, "--no-recovery",
             "executes a solved graph under injected faults without the "
             "recovery ladder and requires --graph=<file> and --faults");
    Ok = false;
  }
  return Ok;
}

/// --verify support: runs the graph verifier over \p G and renders every
/// finding to stderr. Returns non-zero when diagnostics were produced so
/// callers can exit instead of computing on a broken graph.
int verifyGraphCli(const Graph &G, const CliOptions &O, const char *What) {
  if (!O.Verify)
    return 0;
  DiagnosticEngine DE(O.Flow.MaxVerifyErrors);
  if (verify(G, DE))
    return 0;
  std::fprintf(stderr, "error: %s '%s' failed verification:\n%s", What,
               G.name().c_str(), DE.render().c_str());
  return 1;
}

std::string cachePath(const CliOptions &O) {
  // The net may be a graph-file path; flatten separators so the profile
  // log still lands inside --dir.
  std::string Net = O.Net;
  for (char &C : Net)
    if (C == '/' || C == '\\')
      C = '_';
  return O.Dir + "/profile_" + Net + ".tsv";
}

/// Writes the profile log to cachePath(O). A failed write is an error in
/// every mode that writes one.
bool saveProfileLog(const Profiler &P, const CliOptions &O) {
  if (P.saveCache(cachePath(O)))
    return true;
  std::fprintf(stderr, "error: cannot write %s\n", cachePath(O).c_str());
  return false;
}

/// Resolves the positional net argument: a model-zoo name, or a
/// path to a serialized graph file (`pimflow compile m.graph`).
std::optional<Graph> resolveModel(const std::string &NameOrPath) {
  if (auto G = tryBuildModel(NameOrPath))
    return G;
  std::string Error;
  if (auto G = loadGraph(NameOrPath, &Error))
    return G;
  std::fprintf(stderr,
               "error: '%s' is neither a zoo model nor a loadable graph "
               "file (%s)\n",
               NameOrPath.c_str(), Error.c_str());
  return std::nullopt;
}

/// Writes the Prometheus exposition to --metrics-out, when given.
bool writeMetricsOut(const CliOptions &O) {
  if (O.MetricsOut.empty())
    return true;
  if (!obs::writeMetricsText(O.MetricsOut)) {
    std::fprintf(stderr, "error: cannot write %s\n", O.MetricsOut.c_str());
    return false;
  }
  std::printf("metrics exposition written to %s\n", O.MetricsOut.c_str());
  return true;
}

/// Writes --perf-report, --trace-out and --metrics-out for a finished
/// compile. The exporters read the timeline's kernel records and plan
/// nothing, so the telemetry is the same whichever of them run.
int exportObservability(const CliOptions &O, const CompileResult &R) {
  // With telemetry collected, attribute the timeline once: record its
  // critical-path and phase counters for this run, then run the in-run
  // anomaly watchdog (tail-latency ratios, lane idle gaps, retry rates)
  // before anything is exported, so the warnings land next to the run
  // they describe.
  if (obs::Registry::instance().enabled() && !R.Schedule.Nodes.empty()) {
    const obs::AttributionReport A =
        obs::attributeTimeline(R.Transformed, R.Schedule, R.Config);
    obs::addCounter("attrib.critical_steps",
                    static_cast<int64_t>(A.Critical.Steps.size()));
    obs::exportPhaseCounters(A.Phases);
    DiagnosticEngine ADE;
    if (obs::evaluateAnomalies(ADE, &A) > 0)
      std::fprintf(stderr, "%s", ADE.render().c_str());
  }
  if (!O.PerfReport.empty()) {
    if (!obs::writePerfReport(R, O.PerfReport)) {
      std::fprintf(stderr, "error: cannot write %s\n", O.PerfReport.c_str());
      return 1;
    }
    std::printf("perf report written to %s (render with `pimflow report "
                "%s`)\n",
                O.PerfReport.c_str(), O.PerfReport.c_str());
  }
  if (!O.TraceOut.empty()) {
    if (!obs::writeChromeTrace(R, O.TraceOut)) {
      std::fprintf(stderr, "error: cannot write %s\n", O.TraceOut.c_str());
      return 1;
    }
    std::printf("Chrome trace written to %s (load in chrome://tracing or "
                "ui.perfetto.dev)\n",
                O.TraceOut.c_str());
  }
  return writeMetricsOut(O) ? 0 : 1;
}

/// Prints the degradation summary of a recovered run.
void printRecovery(const std::optional<RecoverySummary> &Recovery) {
  if (!Recovery)
    return;
  const RecoverySummary &R = *Recovery;
  if (!R.Degraded) {
    std::printf("fault injection: no degradation (all faults absorbed)\n");
    return;
  }
  std::printf("fault injection: degraded run — %d dead, %d stalled, %d "
              "surviving channel(s); %d node(s) remapped, %d fell back, %d "
              "retr%s absorbed\n",
              R.DeadChannels, R.StalledChannels, R.SurvivingChannels,
              R.NodesRemapped, R.NodesFellBack, R.TransientRetries,
              R.TransientRetries == 1 ? "y" : "ies");
  for (const std::string &Note : R.Notes)
    std::printf("  - %s\n", Note.c_str());
}

int runProfile(const CliOptions &O) {
  auto Maybe = resolveModel(O.Net);
  if (!Maybe)
    return 2;
  Graph Model = std::move(*Maybe);
  Profiler P(systemConfigFor(OffloadPolicy::PimFlow, O.Flow));
  P.loadCache(cachePath(O)); // Resume previous profiling if present.

  if (O.ProfileTarget == "split") {
    SearchOptions S = searchOptionsFor(OffloadPolicy::PimFlowMd, O.Flow);
    S.RefineRatios = O.Flow.AutoTuneRatios;
    SearchEngine Engine(P, S);
    ExecutionPlan Plan = Engine.search(Model);
    std::printf("profiled %zu PIM-candidate layers at %s ratio "
                "granularity\n",
                Plan.Layers.size(), O.Flow.AutoTuneRatios ? "2%" : "10%");
  } else {
    const std::vector<PipelineCandidate> Cands =
        findPipelineCandidates(Model);
    for (const PipelineCandidate &C : Cands)
      P.pipelineNs(Model, C.Chain, O.Flow.PipelineStages);
    std::printf("profiled %zu pipelining candidate subgraphs (%d stages)\n",
                Cands.size(), O.Flow.PipelineStages);
  }
  std::printf("measurements: %zu new, %zu from cache\n", P.cacheMisses(),
              P.cacheHits());
  if (!saveProfileLog(P, O))
    return 1;
  std::printf("profile log written to %s\n", cachePath(O).c_str());
  if (!O.TraceOut.empty()) {
    // No execution timeline in profile mode: export the compile spans only.
    if (!obs::writeTextFile(
            O.TraceOut,
            obs::renderCompileTrace(obs::Tracer::instance().snapshot()))) {
      std::fprintf(stderr, "error: cannot write %s\n", O.TraceOut.c_str());
      return 1;
    }
    std::printf("Chrome trace written to %s\n", O.TraceOut.c_str());
  }
  return writeMetricsOut(O) ? 0 : 1;
}

int runSolve(const CliOptions &O) {
  auto Maybe = resolveModel(O.Net);
  if (!Maybe)
    return 2;
  Graph Model = std::move(*Maybe);
  if (const int Rc = verifyGraphCli(Model, O, "model"))
    return Rc;
  PimFlow Flow(O.Policy, O.Flow);
  Flow.profiler().loadCache(cachePath(O));
  CompileResult R = Flow.compileAndRun(Model);

  std::printf("optimal execution plan for %s (%s):\n", O.Net.c_str(),
              policyName(R.Policy));
  Table T;
  T.setHeader({"mode", "nodes", "detail", "time (us)"});
  for (const SegmentPlan &S : R.Plan.Segments) {
    if (S.Mode == SegmentMode::GpuNode)
      continue;
    std::string Names;
    for (NodeId Id : S.Nodes) {
      if (!Names.empty())
        Names += '+';
      Names += Model.node(Id).Name;
    }
    std::string Detail;
    if (S.Mode == SegmentMode::MdDp)
      Detail = formatStr("%.0f%% GPU", S.RatioGpu * 100.0);
    else if (S.Mode == SegmentMode::Pipeline)
      Detail = pipelinePatternName(S.Pattern);
    T.addRow({segmentModeName(S.Mode), Names, Detail,
              formatStr("%.2f", S.PredictedNs / 1e3)});
  }
  std::printf("%s", T.render().c_str());

  const std::string GraphPath = O.Dir + "/" + O.Net + ".pimflow.graph";
  if (!saveGraph(R.Transformed, GraphPath)) {
    std::fprintf(stderr, "error: cannot write %s\n", GraphPath.c_str());
    return 1;
  }
  std::printf("\ntransformed graph written to %s (reload with "
              "pf::loadGraph)\n",
              GraphPath.c_str());
  if (!saveProfileLog(Flow.profiler(), O))
    return 1;
  return exportObservability(O, R);
}

/// Step 3 shortcut: execute an already-solved transformed graph (the
/// artifact's "jump to Step 3 if you have already computed the optimal
/// graph").
int runExecuteGraphFile(const CliOptions &O) {
  std::string Error;
  auto Loaded = loadGraph(O.GraphFile, &Error);
  if (!Loaded) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  // Graph files are hand-editable: verify before executing when asked.
  if (const int Rc = verifyGraphCli(*Loaded, O, "graph file"))
    return Rc;
  // No search ran: assemble the result the printers/exporters need by hand.
  CompileResult R;
  R.Policy = O.GpuOnly ? OffloadPolicy::GpuOnly : O.Policy;
  R.Config = systemConfigFor(R.Policy, O.Flow);
  R.Transformed = std::move(*Loaded);
  if (O.Flow.FaultSpec.empty()) {
    R.Schedule = ExecutionEngine(R.Config).execute(R.Transformed);
  } else {
    // --no-recovery lets a persistent fault reach the engine and fail the
    // run (ci.sh tier 6 relies on this to trigger the auto-dump).
    DiagnosticEngine DE;
    if (!executeWithFaults(R, O.Flow, DE, !O.NoRecovery)) {
      std::fprintf(stderr, "error: %s:\n%s",
                   O.NoRecovery ? "execution failed under --no-recovery"
                                : "fault recovery failed",
                   DE.render().c_str());
      return 1;
    }
  }
  std::printf("%s (%zu nodes): %.2f us end-to-end, %.2f uJ\n",
              R.Transformed.name().c_str(), R.Transformed.numNodes(),
              R.Schedule.TotalNs / 1e3, R.Schedule.EnergyJ * 1e6);
  std::printf("device busy: GPU %.1f us, PIM %.1f us\n",
              R.Schedule.GpuBusyNs / 1e3, R.Schedule.PimBusyNs / 1e3);
  printRecovery(R.Recovery);
  if (O.observed())
    return exportObservability(O, R);
  return 0;
}

/// `pimflow compile <net> --plan-out=<file>`: run the search, serialize
/// the plan artifact, and stop — no transform and no execution. With
/// --plan-cache-dir the result is also (or only) stored content-addressed.
int runCompile(const CliOptions &O) {
  auto Maybe = resolveModel(O.Net);
  if (!Maybe)
    return 2;
  Graph Model = std::move(*Maybe);
  if (const int Rc = verifyGraphCli(Model, O, "model"))
    return Rc;
  const OffloadPolicy Policy = O.GpuOnly ? OffloadPolicy::GpuOnly : O.Policy;
  PimFlow Flow(Policy, O.Flow);
  Flow.profiler().loadCache(cachePath(O));
  const ExecutionPlan Plan = Flow.plan(Model);
  const PlanKey Key = Flow.planKey(Model);
  std::printf("compiled %s under %s: %zu segments, %.2f us predicted\n",
              O.Net.c_str(), policyName(Policy), Plan.Segments.size(),
              Plan.PredictedNs / 1e3);
  std::printf("plan key: %s\n", Key.digest().c_str());
  if (!O.PlanOut.empty()) {
    if (!savePlanArtifact({Key, Plan}, O.PlanOut)) {
      std::fprintf(stderr, "error: cannot write %s\n", O.PlanOut.c_str());
      return 1;
    }
    std::printf("plan artifact written to %s (replay with `pimflow run %s "
                "--plan=%s`)\n",
                O.PlanOut.c_str(), O.Net.c_str(), O.PlanOut.c_str());
  }
  if (PlanCache *Cache = Flow.planCache())
    std::printf("plan cache %s: %zu hit(s), %zu miss(es), %zu store(s)\n",
                Cache->dir().c_str(), Cache->hits(), Cache->misses(),
                Cache->stores());
  if (!saveProfileLog(Flow.profiler(), O))
    return 1;
  return writeMetricsOut(O) ? 0 : 1;
}

/// `pimflow run <net> --plan=<file>`: replay a compiled plan artifact —
/// validate its key against the live (model, config, options) and execute
/// without running the search or touching the profiler. A key mismatch is
/// a hard error: silently re-searching would hide that the artifact no
/// longer describes this compile.
int runReplay(const CliOptions &O) {
  auto Maybe = resolveModel(O.Net);
  if (!Maybe)
    return 2;
  Graph Model = std::move(*Maybe);
  if (const int Rc = verifyGraphCli(Model, O, "model"))
    return Rc;
  const OffloadPolicy Policy = O.GpuOnly ? OffloadPolicy::GpuOnly : O.Policy;
  PimFlow Flow(Policy, O.Flow);

  DiagnosticEngine DE;
  auto Artifact = loadPlanArtifact(O.PlanIn, DE);
  if (!Artifact) {
    std::fprintf(stderr, "error: cannot replay %s:\n%s", O.PlanIn.c_str(),
                 DE.render().c_str());
    return 1;
  }
  if (!validatePlanKey(Artifact->Key, Flow.planKey(Model), DE)) {
    std::fprintf(stderr,
                 "error: plan %s does not match this compile:\n%s",
                 O.PlanIn.c_str(), DE.render().c_str());
    return 1;
  }
  obs::addCounter("plan.replays");
  CompileResult R = Flow.executePlan(Model, std::move(Artifact->Plan));

  std::printf("%s on %s: %.2f us end-to-end, %.2f uJ\n",
              policyName(Policy), O.Net.c_str(), R.endToEndNs() / 1e3,
              R.energyJ() * 1e6);
  std::printf("replayed plan %s (search skipped)\n", O.PlanIn.c_str());
  printRecovery(R.Recovery);
  if (O.Stats)
    std::printf("\n%s", renderReport(R).c_str());
  return exportObservability(O, R);
}

int runExecute(const CliOptions &O) {
  if (!O.PlanIn.empty())
    return runReplay(O);
  if (!O.GraphFile.empty())
    return runExecuteGraphFile(O);
  auto Maybe = resolveModel(O.Net);
  if (!Maybe)
    return 2;
  Graph Model = std::move(*Maybe);
  if (const int Rc = verifyGraphCli(Model, O, "model"))
    return Rc;
  const OffloadPolicy Policy = O.GpuOnly ? OffloadPolicy::GpuOnly : O.Policy;
  PimFlow Flow(Policy, O.Flow);
  Flow.profiler().loadCache(cachePath(O));
  CompileResult R = Flow.compileAndRun(Model);

  std::printf("%s on %s: %.2f us end-to-end, %.2f uJ\n",
              policyName(Policy), O.Net.c_str(), R.endToEndNs() / 1e3,
              R.energyJ() * 1e6);
  printRecovery(R.Recovery);
  if (O.Stats)
    std::printf("\n%s", renderReport(R).c_str());
  // Export before the baseline comparison below: its second compileAndRun
  // would append spans and counters that belong to the baseline, not to the
  // run being reported.
  if (const int Rc = exportObservability(O, R))
    return Rc;
  if (!O.GpuOnly) {
    PimFlow Base(OffloadPolicy::GpuOnly, O.Flow);
    CompileResult BR = Base.compileAndRun(Model);
    std::printf("GPU baseline: %.2f us -> %.2fx speedup\n",
                BR.endToEndNs() / 1e3, BR.endToEndNs() / R.endToEndNs());
  }
  return saveProfileLog(Flow.profiler(), O) ? 0 : 1;
}

/// Dumps the PIM command trace of every offloaded kernel of the solved
/// graph — the artifact's generated DRAM-PIM simulator inputs.
int runTrace(const CliOptions &O) {
  auto Maybe = resolveModel(O.Net);
  if (!Maybe)
    return 2;
  Graph Model = std::move(*Maybe);
  if (const int Rc = verifyGraphCli(Model, O, "model"))
    return Rc;
  PimFlow Flow(O.Policy, O.Flow);
  Flow.profiler().loadCache(cachePath(O));
  CompileResult R = Flow.compileAndRun(Model);

  PimCommandGenerator Gen(R.Config.Pim, R.Config.Codegen);
  int Dumped = 0;
  for (const PimKernelRecord &K : R.Schedule.Kernels) {
    const Node &N = R.Transformed.node(K.Id);
    PimKernelPlan Plan;
    {
      // Rebuild the trace of the mapping the run chose; the rebuild is
      // export work, so its telemetry stays out of the run's.
      obs::Scope Throwaway;
      obs::ScopeGuard Guard(Throwaway);
      Plan = Gen.planWithMapping(lowerToPimSpec(R.Transformed, K.Id),
                                 K.ChannelsForM, K.ChannelsForV,
                                 K.ChannelsForK);
    }
    const std::string Path =
        formatStr("%s/%s.%s.trace", O.Dir.c_str(), O.Net.c_str(),
                  N.Name.c_str());
    if (!saveTrace(Plan.Trace, Path)) {
      std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
      return 1;
    }
    std::printf("%-28s %-14s %8.2f us -> %s\n", N.Name.c_str(),
                K.describeMapping().c_str(), Plan.Ns / 1e3, Path.c_str());
    ++Dumped;
  }
  std::printf("%d PIM kernel trace(s) written\n", Dumped);
  return exportObservability(O, R);
}

/// `pimflow report <file>`: renders a saved --perf-report document as
/// human-readable text.
int runReport(const CliOptions &O) {
  const auto Text = obs::readTextFile(O.ReportFile);
  if (!Text) {
    std::fprintf(stderr, "error: cannot read %s\n", O.ReportFile.c_str());
    return 1;
  }
  std::string Error;
  const auto Doc = obs::JsonValue::parse(*Text, &Error);
  if (!Doc) {
    std::fprintf(stderr, "error: %s does not parse as JSON: %s\n",
                 O.ReportFile.c_str(), Error.c_str());
    return 1;
  }
  if (O.ReportRequest >= 0) {
    std::string RequestError;
    const std::string Text =
        serve::renderServeRequestText(*Doc, O.ReportRequest, &RequestError);
    if (Text.empty()) {
      std::fprintf(stderr, "error: %s: %s\n", O.ReportFile.c_str(),
                   RequestError.c_str());
      return 1;
    }
    std::printf("%s", Text.c_str());
    return 0;
  }
  if (O.ReportMetrics) {
    const std::string Text = obs::renderPerfReportMetricsText(*Doc);
    if (Text.empty()) {
      std::fprintf(stderr,
                   "error: %s has no metrics section (schema v1 report?)\n",
                   O.ReportFile.c_str());
      return 1;
    }
    std::printf("%s", Text.c_str());
    return 0;
  }
  std::printf("%s", obs::renderPerfReportText(*Doc).c_str());
  return 0;
}

/// `pimflow serve <net>... --requests=<spec>`: the closed-loop
/// multi-tenant serving mode (docs/INTERNALS.md section 13). Compiles
/// (or replays from --plan-cache-dir) every tenant's plan, then admits
/// the deterministic request stream against the shared PIM channel
/// group. --jobs sizes the request re-run workers; the summary is
/// byte-identical for every --jobs=N.
int runServe(const CliOptions &O) {
  DiagnosticEngine DE(O.Flow.MaxVerifyErrors);
  serve::LoadSpec Spec;
  if (!serve::LoadSpec::parse(O.Requests, Spec, DE)) {
    std::fprintf(stderr, "%s", DE.render().c_str());
    return 2;
  }

  std::vector<std::pair<std::string, Graph>> Models;
  for (const std::string &Net : O.ServeNets) {
    auto Maybe = resolveModel(Net);
    if (!Maybe)
      return 1;
    if (int Rc = verifyGraphCli(*Maybe, O, "serve model"))
      return Rc;
    Models.emplace_back(Net, std::move(*Maybe));
  }

  serve::ServerOptions SO;
  SO.Policy = O.GpuOnly ? OffloadPolicy::GpuOnly : O.Policy;
  SO.Flow = O.Flow;
  SO.MaxInflight = O.MaxInflight;
  SO.MaxQueue = O.MaxQueue;
  SO.PoolChannels = O.ChannelPool;
  SO.Jobs = O.Jobs.value_or(0);
  SO.DefaultDeadlineUs = O.DefaultDeadlineUs;
  SO.RetryBudget = O.RetryBudget;
  SO.BreakerThreshold = O.BreakerThreshold;
  SO.BreakerCooldownUs = O.BreakerCooldownUs;
  if (!O.TraceSample.empty() &&
      !serve::TraceSamplePolicy::parse(O.TraceSample, SO.Sample, DE)) {
    std::fprintf(stderr, "%s", DE.render().c_str());
    return 2;
  }
  if (!O.Flow.FaultSpec.empty()) {
    const int Pool = O.ChannelPool > 0 ? O.ChannelPool : O.Flow.PimChannels;
    if (O.Flow.FaultSpec == "chaos") {
      // Deterministic horizon from the spec alone: twice the expected
      // span of the arrival stream, so the timeline scales with the load
      // but never depends on the run.
      const int64_t HorizonNs = static_cast<int64_t>(
          std::max(1, Spec.Count) * std::max(1.0, Spec.MeanGapUs) * 2.0 *
          1e3);
      SO.Faults =
          FaultModel::chaosTimeline(O.Flow.FaultSeed, Pool, HorizonNs);
    } else {
      SO.Faults = *FaultModel::parse(O.Flow.FaultSpec, DE); // Checked.
    }
  }
  serve::Server Srv(std::move(Models), SO);
  const serve::ServeResult R = Srv.run(Spec, &DE);
  if (!DE.diagnostics().empty())
    std::fprintf(stderr, "%s", DE.render().c_str());

  const std::string Summary = serve::renderServeSummary(R);
  std::printf("%s", Summary.c_str());
  if (!O.SummaryOut.empty()) {
    if (!obs::writeTextFile(O.SummaryOut, Summary)) {
      std::fprintf(stderr, "error: cannot write %s\n", O.SummaryOut.c_str());
      return 1;
    }
    std::printf("serve summary written to %s\n", O.SummaryOut.c_str());
  }
  if (!O.PerfReport.empty()) {
    if (!serve::writeServeReport(R, O.PerfReport)) {
      std::fprintf(stderr, "error: cannot write %s\n", O.PerfReport.c_str());
      return 1;
    }
    std::printf("serve report written to %s\n", O.PerfReport.c_str());
  }
  if (!O.TraceOut.empty()) {
    // The serve sibling of the run modes' Chrome trace: request lanes,
    // channel lanes, and the sampled per-attempt span trees. Used to be
    // silently ignored in serve mode.
    if (!Srv.writeTrace(R, O.TraceOut)) {
      std::fprintf(stderr, "error: cannot write %s\n", O.TraceOut.c_str());
      return 1;
    }
    std::printf("serve request trace written to %s (%zu of %zu requests "
                "sampled under --trace-sample=%s)\n",
                O.TraceOut.c_str(), R.SampledRequests.size(),
                R.Sessions.size(), R.SamplePolicy.c_str());
  }
  if (!writeMetricsOut(O))
    return 1;
  return DE.hasErrors() ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions O;
  DiagnosticEngine DE;
  if (!parseArgs(Argc, Argv, O, DE)) {
    std::fprintf(stderr, "%s", DE.render().c_str());
    usage();
    return 2;
  }
  setLogLevel(O.Verbose >= 2   ? LogLevel::Debug
              : O.Verbose == 1 ? LogLevel::Info
                               : LogLevel::Silent);
  // serve always observes: its serve.* counter/histogram families back
  // the summary's exports and the tier-8 metrics gate.
  if (O.observed() || O.Mode == "serve")
    obs::setObservabilityEnabled(true);
  // Arm the auto-dump path before any work runs so a failing tryExecute or
  // unrecovered fault writes its trace even though the process is about to
  // exit non-zero — the crash-safe part of the flight recorder.
  if (!O.FlightDump.empty())
    obs::FlightRecorder::instance().setAutoDumpPath(O.FlightDump);
  int Rc;
  if (O.Mode == "report")
    Rc = runReport(O);
  else if (O.Mode == "profile")
    Rc = runProfile(O);
  else if (O.Mode == "solve")
    Rc = runSolve(O);
  else if (O.Mode == "trace")
    Rc = runTrace(O);
  else if (O.Mode == "compile")
    Rc = runCompile(O);
  else if (O.Mode == "serve")
    Rc = runServe(O);
  else
    Rc = runExecute(O);
  // The exit-time dump overwrites any mid-run auto-dump with the most
  // recent window of events — the one containing whatever went wrong.
  if (!O.FlightDump.empty() && O.Mode != "report") {
    if (!obs::FlightRecorder::instance().dump(
            O.FlightDump, Rc == 0 ? "cli: run complete" : "cli: run failed"))
      std::fprintf(stderr, "error: cannot write %s\n", O.FlightDump.c_str());
    else
      std::printf("flight recorder dump written to %s\n",
                  O.FlightDump.c_str());
  }
  return Rc;
}
