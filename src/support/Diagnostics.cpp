//===- support/Diagnostics.cpp - Structured diagnostics ---------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostics.h"

#include <cstdio>
#include <cstdlib>

#include "support/Assert.h"
#include "support/Format.h"

using namespace pf;

const char *pf::diagCodeName(DiagCode Code) {
  switch (Code) {
  case DiagCode::BadOption:
    return "cli.bad-option";
  case DiagCode::ParseHeader:
    return "parse.header";
  case DiagCode::ParseRecord:
    return "parse.record";
  case DiagCode::VerifyDanglingValue:
    return "verify.dangling-value";
  case DiagCode::VerifyUseBeforeDef:
    return "verify.use-before-def";
  case DiagCode::VerifyCycle:
    return "verify.cycle";
  case DiagCode::VerifyProducerLink:
    return "verify.producer-link";
  case DiagCode::VerifyGraphOutput:
    return "verify.graph-output";
  case DiagCode::VerifyIllegalAttrs:
    return "verify.illegal-attrs";
  case DiagCode::VerifyShapeInfer:
    return "verify.shape-infer";
  case DiagCode::VerifyStaleShape:
    return "verify.stale-shape";
  case DiagCode::VerifyBadName:
    return "verify.bad-name";
  case DiagCode::VerifyDevice:
    return "verify.device";
  case DiagCode::VerifyPieceOverlap:
    return "verify.piece-overlap";
  case DiagCode::VerifyPieceGap:
    return "verify.piece-gap";
  case DiagCode::VerifyStaleIndex:
    return "verify.stale-index";
  case DiagCode::ConfigInvalid:
    return "config.invalid";
  case DiagCode::FaultBadSpec:
    return "fault.bad-spec";
  case DiagCode::FaultDeadChannel:
    return "fault.dead-channel";
  case DiagCode::FaultStalledChannel:
    return "fault.stalled-channel";
  case DiagCode::FaultRetriesExhausted:
    return "fault.retries-exhausted";
  case DiagCode::FaultPimFloor:
    return "fault.pim-floor";
  case DiagCode::PlanCorrupt:
    return "plan.corrupt";
  case DiagCode::PlanVersion:
    return "plan.version";
  case DiagCode::PlanMismatch:
    return "plan.mismatch";
  case DiagCode::FaultUnrecovered:
    return "fault.unrecovered";
  case DiagCode::ExecNoPimChannels:
    return "exec.no-pim-channels";
  case DiagCode::ExecUnschedulable:
    return "exec.unschedulable";
  case DiagCode::AnomalyTailLatency:
    return "anomaly.tail-latency";
  case DiagCode::AnomalyIdleGap:
    return "anomaly.idle-gap";
  case DiagCode::AnomalyRetryRate:
    return "anomaly.retry-rate";
  case DiagCode::ServeBadSpec:
    return "serve.bad-spec";
  case DiagCode::ServeTimelineGap:
    return "serve.timeline-gap";
  case DiagCode::ServeInternal:
    return "serve.internal";
  case DiagCode::ChannelMisuse:
    return "runtime.channel-misuse";
  }
  pf_unreachable("unknown diagnostic code");
}

std::string Diagnostic::render() const {
  const char *Sev = Severity == DiagSeverity::Error ? "error" : "warning";
  if (Context.empty())
    return formatStr("%s[%s] %s", Sev, diagCodeName(Code), Message.c_str());
  return formatStr("%s[%s] %s: %s", Sev, diagCodeName(Code), Context.c_str(),
                   Message.c_str());
}

DiagnosticEngine::DiagnosticEngine(int MaxErrors)
    : MaxErrors(MaxErrors < 1 ? 1 : static_cast<size_t>(MaxErrors)) {}

void DiagnosticEngine::report(Diagnostic D) {
  if (D.Severity == DiagSeverity::Error)
    ++NumErrors;
  if (Diags.size() < MaxErrors)
    Diags.push_back(std::move(D));
  else
    ++NumDropped;
}

void DiagnosticEngine::error(DiagCode Code, std::string Context,
                             std::string Message) {
  report(Diagnostic{DiagSeverity::Error, Code, std::move(Context),
                    std::move(Message)});
}

void DiagnosticEngine::warning(DiagCode Code, std::string Context,
                               std::string Message) {
  report(Diagnostic{DiagSeverity::Warning, Code, std::move(Context),
                    std::move(Message)});
}

bool DiagnosticEngine::atLimit() const { return Diags.size() >= MaxErrors; }

bool DiagnosticEngine::hasCode(DiagCode Code) const {
  for (const Diagnostic &D : Diags)
    if (D.Code == Code)
      return true;
  return false;
}

std::string DiagnosticEngine::render() const {
  std::string Out;
  for (const Diagnostic &D : Diags) {
    Out += D.render();
    Out += '\n';
  }
  if (NumDropped > 0)
    Out += formatStr("... and %zu more diagnostic(s) suppressed "
                     "(--max-errors)\n",
                     NumDropped);
  return Out;
}

void pf::fatal(const std::string &Message) {
  std::fprintf(stderr, "pimflow: fatal: %s\n", Message.c_str());
  std::abort();
}
