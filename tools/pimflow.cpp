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
///     pimflow run <net> [--gpu_only | --policy=<mech>]
///
/// Profiling results persist in a metadata log (profile_<net>.tsv in
/// --dir, default '.') so later steps reuse them, exactly as the artifact
/// stores layerwise/pipeline measurements.
///
/// Every flag is one row of the Flags table below: its spelling, the verbs
/// that read it, its value kind, the option field it sets and its help
/// line. Parsing, the verb check and the usage text all read that table,
/// so a verb rejects each flag it does not read, and each default lives
/// only in the options struct that the flag sets.
///
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "core/PimFlow.h"
#include "core/Report.h"
#include "plan/PlanArtifact.h"
#include "runtime/ExecutionEngine.h"
#include "runtime/Recovery.h"
#include "codegen/CommandGenerator.h"
#include "pim/TraceIO.h"
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
#include "support/TextFile.h"
#include "transform/PatternMatch.h"

using namespace pf;
using serve::ServerOptions;

namespace {

struct CliOptions {
  std::string Mode; // The verb.
  /// The positional arguments: the net (serve: the tenant list) or the
  /// file `report` renders.
  std::vector<std::string> Positionals;
  std::string ProfileTarget; // split | pipeline
  std::string Dir = ".";
  std::string GraphFile;  // A solved graph to execute without a search.
  std::string PlanIn;     // A plan artifact to replay without a search.
  std::string PlanOut;    // Where compile writes its plan artifact.
  std::string TraceOut;   // Chrome trace-event JSON.
  std::string PerfReport; // Attribution report JSON.
  std::string MetricsOut; // Prometheus exposition.
  std::string FlightDump; // Flight-recorder dump.
  std::string Requests;   // serve: load-generator spec.
  std::string SummaryOut; // serve: golden summary.
  std::string TraceSample; // serve: all | tail | tail:K.
  int ReportRequest = -1;  // report: one request's segments.
  LogLevel Verbosity = LogLevel::Silent;
  bool Stats = false;
  bool ReportMetrics = false; // report: the metrics section only.
  bool NoRecovery = false;    // Faults bypass the recovery ladder.
  /// Serve's options. Their Policy and Flow configure every verb.
  ServerOptions Serve;

  const PimFlowOptions &flow() const { return Serve.Flow; }
  /// The models to load, zoo names or graph files; toy when none is given.
  std::vector<std::string> nets() const {
    return Positionals.empty() ? std::vector<std::string>{"toy"}
                               : Positionals;
  }
  std::string net() const { return nets().front(); }
  bool observed() const {
    return !TraceOut.empty() || !PerfReport.empty() || !MetricsOut.empty();
  }
};

/// How a flag takes its value.
enum class Kind {
  Switch, ///< `--flag`: stores the row's Min.
  Int,    ///< `--flag=N`: an integer within [Min, Max].
  Text,   ///< `--flag=<Meta>`: stored as given.
  Names,  ///< `--flag=<Meta>`: one of the '|'-separated names in Meta, or
          ///< for a policy field, a mechanism name.
};

/// The option field a flag sets: a field of CliOptions, of the serve
/// options it holds, or of the compile options those hold.
using Field = std::variant<
    bool CliOptions::*, int CliOptions::*, LogLevel CliOptions::*,
    std::string CliOptions::*, int ServerOptions::*,
    int64_t ServerOptions::*, OffloadPolicy ServerOptions::*,
    bool PimFlowOptions::*, int PimFlowOptions::*, uint64_t PimFlowOptions::*,
    std::string PimFlowOptions::*>;

struct Flag {
  const char *Name;  ///< The spelling, up to any '='.
  const char *Verbs; ///< The verbs that read it, space-separated.
  Kind K;
  Field Target;
  int64_t Min, Max; ///< See Kind.
  const char *Meta; ///< The value's placeholder in the usage text.
  const char *Help; ///< One line of usage text.
};

template <class V = bool>
Flag sw(const char *Name, const char *Verbs, Field Target, const char *Help,
        V Value = true) {
  const auto Stored = static_cast<int64_t>(Value);
  return {Name, Verbs, Kind::Switch, Target, Stored, Stored, "", Help};
}
Flag num(const char *Name, const char *Verbs, Field Target, int64_t Min,
         int64_t Max, const char *Help) {
  return {Name, Verbs, Kind::Int, Target, Min, Max, "N", Help};
}
Flag text(const char *Name, const char *Verbs, Field Target,
          const char *Meta, const char *Help) {
  return {Name, Verbs, Kind::Text, Target, 0, 0, Meta, Help};
}
Flag names(const char *Name, const char *Verbs, Field Target,
           const char *Meta, const char *Help) {
  return {Name, Verbs, Kind::Names, Target, 0, 0, Meta, Help};
}

constexpr const char *AllVerbs = "profile solve run trace compile report serve";
// A flag's list names verbs, and run by its mode: run searches, run:graph
// executes a solved --graph file as it is and run:plan replays a --plan
// artifact. The modes that load a model, that set up a simulated system
// and log (all but profile), that search or key a plan, that compile and
// that execute.
constexpr const char *Loads =
    "profile solve run run:graph run:plan trace compile serve";
constexpr const char *Configures =
    "solve run run:graph run:plan trace compile serve";
constexpr const char *Searches =
    "profile solve run run:plan trace compile serve";
constexpr const char *Compiles = "solve run trace compile serve";
constexpr const char *Executes = "solve run run:graph run:plan trace serve";

const Flag Flags[] = {
    names("-t", "profile", &CliOptions::ProfileTarget, "split|pipeline",
          "profile MD-DP split candidates or pipelining subgraphs"),
    text("--dir", "profile solve run trace compile", &CliOptions::Dir, "path",
         "directory of the profile log, solved graph and kernel traces"),
    names("--policy", Configures, &ServerOptions::Policy, "mechanism",
          "offloading mechanism"),
    sw("--gpu_only", Configures, &ServerOptions::Policy,
       "the GPU-only baseline, as --policy=Baseline", OffloadPolicy::GpuOnly),
    text("--graph", "run:graph", &CliOptions::GraphFile, "file",
         "execute a solved <net>.pimflow.graph; the search is skipped"),
    text("--plan", "run:plan", &CliOptions::PlanIn, "file",
         "replay a compiled plan; the search is skipped"),
    sw("--stats", "run run:plan", &CliOptions::Stats,
       "print execution statistics"),
    sw("--no-recovery", "run:graph", &CliOptions::NoRecovery,
       "run a --graph under --faults without the recovery ladder"),
    text("--plan-out", "compile", &CliOptions::PlanOut, "file",
         "write the plan artifact"),
    text("--plan-cache-dir", Compiles, &PimFlowOptions::PlanCacheDir, "dir",
         "content-addressed plan cache"),
    sw("--metrics", "report", &CliOptions::ReportMetrics,
       "render the metrics section only"),
    num("--request", "report", &CliOptions::ReportRequest, 0, 1 << 30,
        "render one serve request's segments"),
    text("--requests", "serve", &CliOptions::Requests, "spec",
         "count:N,seed:S,mean-gap-us:G,batch:B1|B2|...,deadline-us:D"),
    text("--summary-out", "serve", &CliOptions::SummaryOut, "file",
         "write the serve summary"),
    text("--trace-sample", "serve", &CliOptions::TraceSample,
         "all|tail|tail:K", "requests that keep traces and report segments"),
    num("--max-inflight", "serve", &ServerOptions::MaxInflight, 1, 4096,
        "admission bound"),
    num("--max-queue", "serve", &ServerOptions::MaxQueue, 0, 1 << 20,
        "wait-line bound; later arrivals are shed"),
    num("--channel-pool", "serve", &ServerOptions::PoolChannels, 1, 4096,
        "shared PIM channel group (default: the planned count)"),
    num("--default-deadline-us", "serve", &ServerOptions::DefaultDeadlineUs,
        0, 1'000'000'000, "deadline of requests whose spec sets none"),
    num("--retry-budget", "serve", &ServerOptions::RetryBudget, 0, 1 << 20,
        "mid-run fault retries of the whole stream"),
    num("--breaker-threshold", "serve", &ServerOptions::BreakerThreshold, 0,
        1 << 20, "failures that trip a channel's breaker; 0 never trips"),
    num("--breaker-cooldown-us", "serve", &ServerOptions::BreakerCooldownUs,
        1, 1'000'000'000, "virtual us between a tripped channel's probes"),
    // SystemConfig::dual requires 0 < PimChannels < TotalChannels.
    num("--pim-channels", Loads, &PimFlowOptions::PimChannels, 1,
        PimFlowOptions().TotalChannels - 1, "PIM-enabled channels"),
    num("--stages", Searches, &PimFlowOptions::PipelineStages, 2, 64,
        "pipeline stages"),
    sw("--autotune", Searches, &PimFlowOptions::AutoTuneRatios,
       "refine MD-DP split ratios at 2% granularity"),
    sw("--no-memopt", Loads, &PimFlowOptions::MemoryOptimizer,
       "disable the PIM memory-layout optimizer", false),
    sw("--verify", Loads, &PimFlowOptions::VerifyPasses,
       "verify the model and every pass boundary"),
    // run:graph executes its graph untransformed.
    sw("--differential", "solve run run:plan trace serve",
       &PimFlowOptions::DifferentialCheck,
       "cross-run the interpreter at each pass boundary (slow)"),
    num("--max-errors", Loads, &PimFlowOptions::MaxVerifyErrors, 1, 1 << 20,
        "cap on collected verifier diagnostics"),
    text("--faults", Executes, &PimFlowOptions::FaultSpec, "spec|chaos",
         "inject PIM channel faults: dead:<ch>, stall:<ch>, "
         "slow:<ch>:<mult>, comp:<ch>:<ord>:<fails>, "
         "readres:<ch>:<ord>:<fails>; serve also takes dead@<t1>..<t2>:<ch> "
         "in virtual us"),
    num("--fault-seed", Executes, &PimFlowOptions::FaultSeed, 0,
        std::numeric_limits<int64_t>::max(), "seed of --faults=chaos"),
    num("--max-retries", Executes, &PimFlowOptions::MaxRetries, 0, 100,
        "retries of a transient fault (serve: per request)"),
    num("--pim-floor", Configures, &PimFlowOptions::PimFloor, 0, 4096,
        "surviving PIM channels below which the graph runs GPU-only"),
    text("--trace-out", "profile solve run run:graph run:plan trace serve",
         &CliOptions::TraceOut, "file", "write a Chrome trace"),
    text("--perf-report", Executes, &CliOptions::PerfReport, "file",
         "write the perf report (render with `pimflow report`)"),
    text("--metrics-out", Loads, &CliOptions::MetricsOut, "file",
         "write the Prometheus exposition"),
    text("--flight-dump", Loads, &CliOptions::FlightDump, "file",
         "dump the flight recorder at exit or on a failure"),
    sw("-v", Configures, &CliOptions::Verbosity, "log phases", LogLevel::Info),
    sw("-vv", Configures, &CliOptions::Verbosity, "log debug detail",
       LogLevel::Debug),
};

bool contains(const char *List, const std::string &Word, char Sep = ' ') {
  const std::vector<std::string> Words = split(List, Sep);
  return std::find(Words.begin(), Words.end(), Word) != Words.end();
}

const Flag *findFlag(const std::string &Name) {
  for (const Flag &F : Flags)
    if (Name == F.Name)
      return &F;
  return nullptr;
}

/// The spelling of the flag that sets \p Target.
const char *nameOf(const Field &Target) {
  for (const Flag &F : Flags)
    if (F.Target == Target)
      return F.Name;
  return "?";
}

/// The field \p M within \p O.
template <class S, class T> T &fieldOf(CliOptions &O, T S::*M) {
  if constexpr (std::is_same_v<S, CliOptions>)
    return O.*M;
  else if constexpr (std::is_same_v<S, ServerOptions>)
    return O.Serve.*M;
  else
    return O.Serve.Flow.*M;
}

/// Parses the value of an `--opt=N` argument as a bounded integer.
/// Malformed or out-of-range values become cli.bad-option diagnostics
/// instead of std::atoi's silent 0 (which used to configure 0 PIM channels
/// from `--pim-channels=abc` and run the whole flow on garbage).
bool parseIntOption(const Flag &F, const std::string &Val, int64_t &Out,
                    DiagnosticEngine &DE) {
  const std::optional<int64_t> Parsed = parseInt(Val);
  if (!Parsed) {
    DE.error(DiagCode::BadOption, F.Name,
             formatStr("expects an integer, got '%s'", Val.c_str()));
    return false;
  }
  if (*Parsed < F.Min || *Parsed > F.Max) {
    DE.error(DiagCode::BadOption, F.Name,
             formatStr("value %lld is outside the legal range [%lld, %lld]",
                       static_cast<long long>(*Parsed),
                       static_cast<long long>(F.Min),
                       static_cast<long long>(F.Max)));
    return false;
  }
  Out = *Parsed;
  return true;
}

/// Parses the mechanism name \p Val of flag \p F. A misspelled mechanism
/// is a cli.bad-option error naming the accepted spellings, never a silent
/// fallback.
bool parsePolicyOption(const Flag &F, const std::string &Val,
                       OffloadPolicy &Out, DiagnosticEngine &DE) {
  std::string Names;
  for (OffloadPolicy P : allPolicies()) {
    if (Val == policyName(P)) {
      Out = P;
      return true;
    }
    Names += Names.empty() ? "" : ", ";
    Names += policyName(P);
  }
  DE.error(DiagCode::BadOption, F.Name,
           formatStr("unknown mechanism '%s' (expected one of: %s)",
                     Val.c_str(), Names.c_str()));
  return false;
}

/// Stores the value \p Val of flag \p F into its field of \p O.
bool setFlag(const Flag &F, const std::string &Val, CliOptions &O,
             DiagnosticEngine &DE) {
  return std::visit(
      [&](auto M) {
        auto &Field = fieldOf(O, M);
        using T = std::remove_reference_t<decltype(Field)>;
        if constexpr (std::is_same_v<T, std::string>) {
          if (F.K == Kind::Names && !contains(F.Meta, Val, '|')) {
            DE.error(DiagCode::BadOption, F.Name,
                     "must be " + join(split(F.Meta, '|'), " or "));
            return false;
          }
          Field = Val;
        } else if (F.K == Kind::Switch) {
          Field = static_cast<T>(F.Min);
        } else if constexpr (std::is_same_v<T, OffloadPolicy>) {
          return parsePolicyOption(F, Val, Field, DE);
        } else {
          int64_t N = 0;
          if (!parseIntOption(F, Val, N, DE))
            return false;
          Field = static_cast<T>(N);
        }
        return true;
      },
      F.Target);
}

void usage() {
  std::string Text =
      "usage: pimflow <profile|solve|run|trace|compile> <net|graph-file> "
      "[flags]\n"
      "       pimflow serve <net|graph-file>... [flags]\n"
      "       pimflow report <perf-report.json> [flags]\n"
      "flags, each read only by the verbs in brackets (run:graph and "
      "run:plan are run with --graph or --plan):\n";
  for (const Flag &F : Flags) {
    std::string Spelling = F.Name;
    if (F.K == Kind::Int)
      Spelling += std::string("=") + F.Meta;
    else if (F.K != Kind::Switch)
      Spelling += formatStr("=<%s>", F.Meta);
    Text += formatStr("  %-32s %s [%s]\n", Spelling.c_str(), F.Help, F.Verbs);
  }
  std::vector<std::string> Mechanisms;
  for (OffloadPolicy P : allPolicies())
    Mechanisms.push_back(policyName(P));
  Text += "nets: " + join(modelNames(), " ") + " " +
          join(extraModelNames(), " ") + " bert toy\n";
  Text += "mechanisms: " + join(Mechanisms, " ") + "\n";
  std::fputs(Text.c_str(), stderr);
}

bool parseArgs(int Argc, char **Argv, CliOptions &O, DiagnosticEngine &DE) {
  bool Ok = true;
  auto Fail = [&](const char *Name, const std::string &Message) {
    DE.error(DiagCode::BadOption, Name, Message);
    Ok = false;
  };
  std::vector<const Flag *> Given;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (!startsWith(Arg, "-")) {
      if (O.Mode.empty() && contains(AllVerbs, Arg))
        O.Mode = Arg;
      else if (!O.Mode.empty() &&
               (O.Mode == "serve" || O.Positionals.empty()))
        // serve admits a tenant LIST: every positional is another model.
        O.Positionals.push_back(Arg);
      else
        Fail(Argv[I], "unknown argument");
      continue;
    }
    const size_t Eq = Arg.find('=');
    const Flag *F = findFlag(Arg.substr(0, Eq));
    if (!F || (F->K == Kind::Switch) != (Eq == std::string::npos)) {
      Fail(Argv[I], "unknown argument");
      continue;
    }
    // One setting, one flag: a second flag for the same field would
    // override the first by argument order.
    for (const Flag *Prev : Given)
      if (Prev->Target == F->Target)
        Fail(F->Name, Prev == F ? "is given twice"
                                : formatStr("cannot be combined with %s",
                                            Prev->Name));
    Given.push_back(F);
    if (!setFlag(*F, Eq == std::string::npos ? "" : Arg.substr(Eq + 1), O,
                 DE))
      Ok = false;
  }
  if (!contains(AllVerbs, O.Mode)) {
    Fail("<verb>",
         "must be profile, solve, run, trace, compile, report or serve");
    return false;
  }
  std::string Mode = O.Mode;
  if (Mode == "run" && !O.PlanIn.empty())
    Mode = "run:plan";
  else if (Mode == "run" && !O.GraphFile.empty())
    Mode = "run:graph";
  for (const Flag *F : Given)
    if (!contains(F->Verbs, Mode))
      Fail(F->Name, formatStr("is not read by %s (only by: %s)",
                              Mode.c_str(), F->Verbs));
  auto GivenFlag = [&](const Field &Target) {
    return std::any_of(Given.begin(), Given.end(),
                       [&](const Flag *F) { return F->Target == Target; });
  };
  const PimFlowOptions &Flow = O.flow();
  if (O.ReportRequest >= 0 && O.ReportMetrics)
    Fail(nameOf(&CliOptions::ReportRequest),
         "cannot be combined with --metrics (pick one view)");
  if (O.Mode == "compile" && O.PlanOut.empty() && Flow.PlanCacheDir.empty())
    Fail("compile", "expects --plan-out=<file> and/or --plan-cache-dir=<dir>");
  if (O.Mode == "report" && O.Positionals.empty())
    Fail("report", "expects the path of a --perf-report JSON file");
  if (O.Mode == "profile" && !GivenFlag(&CliOptions::ProfileTarget))
    Fail(nameOf(&CliOptions::ProfileTarget), "must be split or pipeline");
  // The spec is checked here, once for every verb, so a malformed one
  // fails before any work runs.
  if (!Flow.FaultSpec.empty() && Flow.FaultSpec != "chaos" &&
      !FaultModel::parse(Flow.FaultSpec, DE))
    Ok = false;
  if (O.NoRecovery && Flow.FaultSpec.empty())
    Fail(nameOf(&CliOptions::NoRecovery),
         "executes a solved graph under injected faults without the "
         "recovery ladder and requires --faults");
  // The fault knobs tune injected faults; without them they do nothing.
  if (GivenFlag(&PimFlowOptions::FaultSeed) && Flow.FaultSpec != "chaos")
    Fail(nameOf(&PimFlowOptions::FaultSeed),
         "seeds --faults=chaos and does nothing without it");
  if (GivenFlag(&PimFlowOptions::MaxRetries) && Flow.FaultSpec.empty() &&
      O.Mode != "serve")
    Fail(nameOf(&PimFlowOptions::MaxRetries),
         "bounds the retries of injected faults and does nothing without "
         "--faults (outside serve)");
  return Ok;
}

/// Runs the graph verifier over \p G under --verify, and over a graph
/// \p FromFile whose stored shapes disagree with inference whether or not
/// --verify is given: a hand-edited shape would otherwise abort the search
/// or the engine, and the copy-free shape check costs one pass over the
/// nodes. Renders every finding to stderr and returns non-zero when the
/// graph fails, so callers can exit instead of computing on it.
int verifyGraphCli(const Graph &G, const CliOptions &O, const char *What,
                   bool FromFile) {
  const bool Check =
      O.flow().VerifyPasses || (FromFile && !storedShapesHold(G));
  if (!Check)
    return 0;
  DiagnosticEngine DE(O.flow().MaxVerifyErrors);
  if (verify(G, DE))
    return 0;
  std::fprintf(stderr, "error: %s '%s' failed verification:\n%s", What,
               G.name().c_str(), DE.render().c_str());
  return 1;
}

/// Loads the model \p NameOrPath names, a zoo model or a serialized graph
/// file (`pimflow compile m.graph`), into \p Out and checks it with
/// verifyGraphCli. Returns the exit code to stop with: 2 when it is
/// neither, 1 when it fails verification, 0 when it loaded.
int loadModel(const std::string &NameOrPath, const CliOptions &O,
              Graph &Out) {
  std::optional<Graph> G = tryBuildModel(NameOrPath);
  const bool FromFile = !G;
  std::string Error;
  if (FromFile)
    G = loadGraph(NameOrPath, &Error);
  if (!G) {
    std::fprintf(stderr,
                 "error: '%s' is neither a zoo model nor a loadable graph "
                 "file (%s)\n",
                 NameOrPath.c_str(), Error.c_str());
    return 2;
  }
  Out = std::move(*G);
  return verifyGraphCli(Out, O, "model", FromFile);
}

std::string cachePath(const CliOptions &O) {
  // The net may be a graph-file path; flatten separators so the profile
  // log still lands inside --dir.
  std::string Net = O.net();
  for (char &C : Net)
    if (C == '/' || C == '\\')
      C = '_';
  return O.Dir + "/profile_" + Net + ".tsv";
}

/// Returns \p Ok, the outcome of writing \p Path, and reports a failure.
/// A write a mode cannot make fails the mode.
bool wrote(bool Ok, const std::string &Path) {
  if (!Ok)
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
  return Ok;
}

/// Writes the profile log to cachePath(O).
bool saveProfileLog(const Profiler &P, const CliOptions &O) {
  return wrote(P.saveCache(cachePath(O)), cachePath(O));
}

/// Writes the Prometheus exposition to --metrics-out, when given.
bool writeMetricsOut(const CliOptions &O) {
  if (O.MetricsOut.empty())
    return true;
  if (!wrote(obs::writeMetricsText(O.MetricsOut), O.MetricsOut))
    return false;
  std::printf("metrics exposition written to %s\n", O.MetricsOut.c_str());
  return true;
}

/// Writes --perf-report, --trace-out and --metrics-out for a finished
/// compile. The exporters read the timeline's kernel records and plan
/// nothing, so the telemetry is the same whichever of them run.
int exportObservability(const CliOptions &O, const CompileResult &R) {
  if (!O.observed())
    return 0;
  // Attribute the timeline once. Record its critical-path and phase
  // counters for this run, then run the in-run anomaly watchdog
  // (tail-latency ratios, lane idle gaps, retry rates) before anything is
  // exported, so the warnings land next to the run they describe; the perf
  // report reuses the same attribution.
  const obs::AttributionReport A =
      obs::attributeTimeline(R.Transformed, R.Schedule, R.Config);
  if (!R.Schedule.Nodes.empty()) {
    obs::addCounter("attrib.critical_steps",
                    static_cast<int64_t>(A.Critical.Steps.size()));
    obs::exportPhaseCounters(A.Phases);
    DiagnosticEngine ADE;
    if (obs::evaluateAnomalies(ADE, &A) > 0)
      std::fprintf(stderr, "%s", ADE.render().c_str());
  }
  if (!O.PerfReport.empty()) {
    if (!wrote(obs::writePerfReport(R, A, O.PerfReport), O.PerfReport))
      return 1;
    std::printf("perf report written to %s (render with `pimflow report "
                "%s`)\n",
                O.PerfReport.c_str(), O.PerfReport.c_str());
  }
  if (!O.TraceOut.empty()) {
    if (!wrote(obs::writeChromeTrace(R, O.TraceOut), O.TraceOut))
      return 1;
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
  Graph Model;
  if (const int Rc = loadModel(O.net(), O, Model))
    return Rc;
  Profiler P(systemConfigFor(OffloadPolicy::PimFlow, O.flow()));
  P.loadCache(cachePath(O)); // Resume previous profiling if present.

  if (O.ProfileTarget == "split") {
    SearchOptions S = searchOptionsFor(OffloadPolicy::PimFlowMd, O.flow());
    S.RefineRatios = O.flow().AutoTuneRatios;
    SearchEngine Engine(P, S);
    ExecutionPlan Plan = Engine.search(Model);
    std::printf("profiled %zu PIM-candidate layers at %s ratio "
                "granularity\n",
                static_cast<size_t>(std::count_if(
                    Plan.Decisions.begin(), Plan.Decisions.end(),
                    [](const SearchDecision &D) { return D.pimCandidate(); })),
                O.flow().AutoTuneRatios ? "2%" : "10%");
  } else {
    const std::vector<PipelineCandidate> Cands =
        findPipelineCandidates(Model);
    for (const PipelineCandidate &C : Cands)
      P.pipelineNs(Model, C.Chain, O.flow().PipelineStages);
    std::printf("profiled %zu pipelining candidate subgraphs (%d stages)\n",
                Cands.size(), O.flow().PipelineStages);
  }
  std::printf("measurements: %zu new, %zu from cache\n", P.cacheMisses(),
              P.cacheHits());
  if (!saveProfileLog(P, O))
    return 1;
  std::printf("profile log written to %s\n", cachePath(O).c_str());
  if (!O.TraceOut.empty()) {
    // No execution timeline in profile mode: export the compile spans only.
    const std::string Trace =
        obs::renderCompileTrace(obs::Tracer::instance().snapshot());
    if (!wrote(writeTextFile(O.TraceOut, Trace), O.TraceOut))
      return 1;
    std::printf("Chrome trace written to %s\n", O.TraceOut.c_str());
  }
  return writeMetricsOut(O) ? 0 : 1;
}

int runSolve(const CliOptions &O) {
  Graph Model;
  if (const int Rc = loadModel(O.net(), O, Model))
    return Rc;
  PimFlow Flow(O.Serve.Policy, O.flow());
  Flow.profiler().loadCache(cachePath(O));
  CompileResult R = Flow.compileAndRun(Model);

  std::printf("optimal execution plan for %s (%s):\n", O.net().c_str(),
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

  const std::string GraphPath = O.Dir + "/" + O.net() + ".pimflow.graph";
  if (!wrote(saveGraph(R.Transformed, GraphPath), GraphPath))
    return 1;
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
  if (const int Rc = verifyGraphCli(*Loaded, O, "graph file", true))
    return Rc;
  // No search ran: assemble the result the printers/exporters need by hand.
  CompileResult R;
  R.Policy = O.Serve.Policy;
  R.Config = systemConfigFor(R.Policy, O.flow());
  R.Transformed = std::move(*Loaded);
  if (O.flow().FaultSpec.empty()) {
    // The graph is the user's: an unschedulable one is a diagnostic.
    DiagnosticEngine DE;
    std::optional<Timeline> TL =
        ExecutionEngine(R.Config).tryExecute(R.Transformed, DE);
    if (!TL) {
      std::fprintf(stderr, "error: cannot execute %s:\n%s",
                   O.GraphFile.c_str(), DE.render().c_str());
      return 1;
    }
    R.Schedule = *std::move(TL);
  } else {
    // --no-recovery lets a persistent fault reach the engine and fail the
    // run (ci.sh tier 6 relies on this to trigger the auto-dump).
    DiagnosticEngine DE;
    if (!executeWithFaults(R, O.flow(), DE, !O.NoRecovery)) {
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
  return exportObservability(O, R);
}

/// `pimflow compile <net> --plan-out=<file>`: run the search, serialize
/// the plan artifact, and stop — no transform and no execution. With
/// --plan-cache-dir the result is also (or only) stored content-addressed.
int runCompile(const CliOptions &O) {
  Graph Model;
  if (const int Rc = loadModel(O.net(), O, Model))
    return Rc;
  const OffloadPolicy Policy = O.Serve.Policy;
  PimFlow Flow(Policy, O.flow());
  Flow.profiler().loadCache(cachePath(O));
  const ExecutionPlan Plan = Flow.plan(Model);
  const PlanKey Key = Flow.planKey(Model);
  std::printf("compiled %s under %s: %zu segments, %.2f us predicted\n",
              O.net().c_str(), policyName(Policy), Plan.Segments.size(),
              Plan.PredictedNs / 1e3);
  std::printf("plan key: %s\n", Key.digest().c_str());
  if (!O.PlanOut.empty()) {
    if (!wrote(savePlanArtifact({Key, Plan}, O.PlanOut), O.PlanOut))
      return 1;
    std::printf("plan artifact written to %s (replay with `pimflow run %s "
                "--plan=%s`)\n",
                O.PlanOut.c_str(), O.net().c_str(), O.PlanOut.c_str());
  }
  if (PlanCache *Cache = Flow.planCache()) {
    std::printf("plan cache %s: %zu hit(s), %zu miss(es), %zu store(s)\n",
                Cache->dir().c_str(), Cache->hits(), Cache->misses(),
                Cache->stores());
    // The cache may be the verb's only output: one that neither hit nor
    // stored was not written.
    if (!wrote(Cache->hits() > 0 || Cache->stores() > 0,
               Cache->pathFor(Key)))
      return 1;
  }
  if (!saveProfileLog(Flow.profiler(), O))
    return 1;
  return writeMetricsOut(O) ? 0 : 1;
}

/// `pimflow run <net> --plan=<file>`: replay a compiled plan artifact —
/// validate its key against the live (model, config, options), check that
/// its segments fit the model, and execute without running the search or
/// touching the profiler. Either mismatch is a hard error: silently
/// re-searching would hide that the artifact no longer describes this
/// compile.
int runReplay(const CliOptions &O) {
  Graph Model;
  if (const int Rc = loadModel(O.net(), O, Model))
    return Rc;
  const OffloadPolicy Policy = O.Serve.Policy;
  PimFlow Flow(Policy, O.flow());

  DiagnosticEngine DE;
  auto Artifact = loadPlanArtifact(O.PlanIn, DE);
  if (!Artifact) {
    std::fprintf(stderr, "error: cannot replay %s:\n%s", O.PlanIn.c_str(),
                 DE.render().c_str());
    return 1;
  }
  if (!validatePlanKey(Artifact->Key, Flow.planKey(Model), DE) ||
      !SearchEngine::canApply(Model, Artifact->Plan, Flow.config(),
                              Flow.searchOptions(), DE)) {
    std::fprintf(stderr,
                 "error: plan %s does not match this compile:\n%s",
                 O.PlanIn.c_str(), DE.render().c_str());
    return 1;
  }
  obs::addCounter("plan.replays");
  CompileResult R = Flow.executePlan(Model, std::move(Artifact->Plan));

  std::printf("%s on %s: %.2f us end-to-end, %.2f uJ\n",
              policyName(Policy), O.net().c_str(), R.endToEndNs() / 1e3,
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
  Graph Model;
  if (const int Rc = loadModel(O.net(), O, Model))
    return Rc;
  const OffloadPolicy Policy = O.Serve.Policy;
  PimFlow Flow(Policy, O.flow());
  Flow.profiler().loadCache(cachePath(O));
  CompileResult R = Flow.compileAndRun(Model);

  std::printf("%s on %s: %.2f us end-to-end, %.2f uJ\n",
              policyName(Policy), O.net().c_str(), R.endToEndNs() / 1e3,
              R.energyJ() * 1e6);
  printRecovery(R.Recovery);
  if (O.Stats)
    std::printf("\n%s", renderReport(R).c_str());
  // Export before the baseline comparison below: its second compileAndRun
  // would append spans and counters that belong to the baseline, not to the
  // run being reported.
  if (const int Rc = exportObservability(O, R))
    return Rc;
  if (Policy != OffloadPolicy::GpuOnly) {
    PimFlow Base(OffloadPolicy::GpuOnly, O.flow());
    CompileResult BR = Base.compileAndRun(Model);
    std::printf("GPU baseline: %.2f us -> %.2fx speedup\n",
                BR.endToEndNs() / 1e3, BR.endToEndNs() / R.endToEndNs());
  }
  return saveProfileLog(Flow.profiler(), O) ? 0 : 1;
}

/// Dumps the PIM command trace of every offloaded kernel of the solved
/// graph — the artifact's generated DRAM-PIM simulator inputs.
int runTrace(const CliOptions &O) {
  Graph Model;
  if (const int Rc = loadModel(O.net(), O, Model))
    return Rc;
  PimFlow Flow(O.Serve.Policy, O.flow());
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
        formatStr("%s/%s.%s.trace", O.Dir.c_str(), O.net().c_str(),
                  N.Name.c_str());
    if (!wrote(saveTrace(Plan.Trace, Path), Path))
      return 1;
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
  const std::string &File = O.Positionals.front();
  const auto Text = readTextFile(File);
  if (!Text) {
    std::fprintf(stderr, "error: cannot read %s\n", File.c_str());
    return 1;
  }
  std::string Error;
  const auto Doc = obs::JsonValue::parse(*Text, &Error);
  if (!Doc) {
    std::fprintf(stderr, "error: %s does not parse as JSON: %s\n",
                 File.c_str(), Error.c_str());
    return 1;
  }
  if (O.ReportRequest >= 0) {
    std::string RequestError;
    const std::string Text =
        serve::renderServeRequestText(*Doc, O.ReportRequest, &RequestError);
    if (Text.empty()) {
      std::fprintf(stderr, "error: %s: %s\n", File.c_str(),
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
                   File.c_str());
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
/// group, all on this thread.
int runServe(const CliOptions &O) {
  ServerOptions SO = O.Serve;
  DiagnosticEngine DE(SO.Flow.MaxVerifyErrors);
  serve::LoadSpec Spec;
  if (!serve::LoadSpec::parse(O.Requests, Spec, DE)) {
    std::fprintf(stderr, "%s", DE.render().c_str());
    return 2;
  }

  std::vector<std::pair<std::string, Graph>> Models;
  for (const std::string &Net : O.nets()) {
    Graph Model;
    if (const int Rc = loadModel(Net, O, Model))
      return Rc;
    Models.emplace_back(Net, std::move(Model));
  }

  if (!O.TraceSample.empty() &&
      !serve::TraceSamplePolicy::parse(O.TraceSample, SO.Sample, DE)) {
    std::fprintf(stderr, "%s", DE.render().c_str());
    return 2;
  }
  if (!SO.Flow.FaultSpec.empty()) {
    const int Pool =
        SO.PoolChannels > 0 ? SO.PoolChannels : SO.Flow.PimChannels;
    if (SO.Flow.FaultSpec == "chaos") {
      // Deterministic horizon from the spec alone: twice the expected
      // span of the arrival stream, so the timeline scales with the load
      // but never depends on the run.
      const int64_t HorizonNs = static_cast<int64_t>(
          std::max(1, Spec.Count) * std::max(1.0, Spec.MeanGapUs) * 2.0 *
          1e3);
      SO.Faults =
          FaultModel::chaosTimeline(SO.Flow.FaultSeed, Pool, HorizonNs);
    } else {
      SO.Faults = *FaultModel::parse(SO.Flow.FaultSpec, DE); // Checked.
    }
  }
  serve::Server Srv(std::move(Models), SO);
  const serve::ServeResult R = Srv.run(Spec, &DE);
  if (!DE.diagnostics().empty())
    std::fprintf(stderr, "%s", DE.render().c_str());

  const std::string Summary = serve::renderServeSummary(R);
  std::printf("%s", Summary.c_str());
  if (!O.SummaryOut.empty()) {
    if (!wrote(writeTextFile(O.SummaryOut, Summary), O.SummaryOut))
      return 1;
    std::printf("serve summary written to %s\n", O.SummaryOut.c_str());
  }
  if (!O.PerfReport.empty()) {
    if (!wrote(serve::writeServeReport(R, O.PerfReport), O.PerfReport))
      return 1;
    std::printf("serve report written to %s\n", O.PerfReport.c_str());
  }
  if (!O.TraceOut.empty()) {
    // The serve sibling of the run modes' Chrome trace: request lanes,
    // channel lanes, and the sampled per-attempt span trees. Used to be
    // silently ignored in serve mode.
    if (!wrote(Srv.writeTrace(R, O.TraceOut), O.TraceOut))
      return 1;
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
  setLogLevel(O.Verbosity);
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
  if (!O.FlightDump.empty() &&
      wrote(obs::FlightRecorder::instance().dump(
                O.FlightDump,
                Rc == 0 ? "cli: run complete" : "cli: run failed"),
            O.FlightDump))
    std::printf("flight recorder dump written to %s\n", O.FlightDump.c_str());
  return Rc;
}
