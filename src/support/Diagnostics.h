//===- support/Diagnostics.h - Structured diagnostics -----------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured-diagnostics engine used on user-reachable error paths
/// (option parsing, trace/graph file parsing, graph verification). Unlike
/// PF_ASSERT, diagnostics are *collected, not thrown*: producers report
/// coded findings with source context into a DiagnosticEngine and the
/// caller decides whether to render them, exit non-zero, or abort. Every
/// diagnostic carries a stable machine-checkable code (see DiagCode) so
/// tests can pin the exact failure class instead of matching prose.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_SUPPORT_DIAGNOSTICS_H
#define PIMFLOW_SUPPORT_DIAGNOSTICS_H

#include <cstdint>
#include <string>
#include <vector>

namespace pf {

/// Stable diagnostic codes. Rendered as dotted slugs ("verify.use-before-def")
/// in messages; tests match on the enum.
enum class DiagCode : uint8_t {
  // Command-line / option handling.
  BadOption,            ///< cli.bad-option: malformed or out-of-range option.
  // File parsing (trace and graph readers).
  ParseHeader,          ///< parse.header: malformed file header.
  ParseRecord,          ///< parse.record: malformed record/line.
  // Graph verifier findings.
  VerifyDanglingValue,  ///< verify.dangling-value: ValueId out of range.
  VerifyUseBeforeDef,   ///< verify.use-before-def: use without a live def.
  VerifyCycle,          ///< verify.cycle: dataflow cycle.
  VerifyProducerLink,   ///< verify.producer-link: producer index inconsistent.
  VerifyGraphOutput,    ///< verify.graph-output: graph interface broken.
  VerifyIllegalAttrs,   ///< verify.illegal-attrs: op attributes out of range.
  VerifyShapeInfer,     ///< verify.shape-infer: shape inference rejects graph.
  VerifyStaleShape,     ///< verify.stale-shape: stored shape != inferred.
  VerifyBadName,        ///< verify.bad-name: name breaks serializer invariant.
  VerifyDevice,         ///< verify.device: illegal device annotation.
  VerifyPieceOverlap,   ///< verify.piece-overlap: HPieces overlap.
  VerifyPieceGap,       ///< verify.piece-gap: HPieces not contiguous from 0.
  VerifyStaleIndex,     ///< verify.stale-index: def-use lists != node table.
  // System-configuration validation.
  ConfigInvalid,        ///< config.invalid: SystemConfig field out of range.
  // Fault injection and recovery (pim/FaultModel, runtime/Recovery).
  FaultBadSpec,         ///< fault.bad-spec: malformed --faults entry.
  FaultDeadChannel,     ///< fault.dead-channel: PIM channel permanently lost.
  FaultStalledChannel,  ///< fault.stalled-channel: GWRITE stall hit watchdog.
  FaultRetriesExhausted,///< fault.retries-exhausted: transient fault persists.
  FaultPimFloor,        ///< fault.pim-floor: capacity below floor, GPU fallback.
  FaultUnrecovered,     ///< fault.unrecovered: persistent fault reached engine.
  // Execution-engine scheduling failures.
  ExecNoPimChannels,    ///< exec.no-pim-channels: PIM node, zero PIM channels.
  ExecUnschedulable,    ///< exec.unschedulable: cyclic or stuck dependency set.
  // Plan artifacts and the content-addressed plan cache (src/plan).
  PlanCorrupt,          ///< plan.corrupt: checksum/structure of artifact broken.
  PlanVersion,          ///< plan.version: artifact format version unsupported.
  PlanMismatch,         ///< plan.mismatch: artifact key disagrees with live run.
  // In-run anomaly watchdog (obs/Anomaly) — always warnings.
  AnomalyTailLatency,   ///< anomaly.tail-latency: p99/p50 ratio over budget.
  AnomalyIdleGap,       ///< anomaly.idle-gap: lane idle fraction over budget.
  AnomalyRetryRate,     ///< anomaly.retry-rate: retries per command over budget.
  // Serving mode (src/serve).
  ServeBadSpec,         ///< serve.bad-spec: malformed --requests entry.
  ServeTimelineGap,     ///< serve.timeline-gap: node absent from a
                        ///< partially-executed timeline (warning, not fatal).
  ServeInternal,        ///< serve.internal: serve-loop invariant violated
                        ///< (live state at drain, duration-table mismatch);
                        ///< the server degrades instead of aborting.
  // Channel arbitration (runtime/ChannelAllocator).
  ChannelMisuse,        ///< runtime.channel-misuse: released a channel that
                        ///< is outside the pool or not currently granted
                        ///< (double release).
};

/// Returns the dotted slug for \p Code ("verify.use-before-def", ...).
const char *diagCodeName(DiagCode Code);

enum class DiagSeverity : uint8_t {
  Warning,
  Error,
};

/// One collected finding.
struct Diagnostic {
  DiagSeverity Severity = DiagSeverity::Error;
  DiagCode Code = DiagCode::BadOption;
  /// Source context: a node/value name, an option name, or "line N".
  std::string Context;
  std::string Message;

  /// Renders as "error[verify.use-before-def] node 'x': message".
  std::string render() const;
};

/// Collects diagnostics up to a cap. Never throws and never aborts; callers
/// inspect hasErrors()/render() and choose the failure mode (the CLI exits
/// non-zero, the pass pipeline aborts via fatal(), tests assert on codes).
class DiagnosticEngine {
public:
  /// \p MaxErrors caps collection; further reports only bump the counter so
  /// a hopeless input cannot flood the terminal. Values < 1 clamp to 1.
  explicit DiagnosticEngine(int MaxErrors = 64);

  void error(DiagCode Code, std::string Context, std::string Message);
  void warning(DiagCode Code, std::string Context, std::string Message);

  bool hasErrors() const { return NumErrors > 0; }
  size_t errorCount() const { return NumErrors; }
  /// True once the collection cap has been reached.
  bool atLimit() const;

  const std::vector<Diagnostic> &diagnostics() const { return Diags; }

  /// True if any collected diagnostic carries \p Code.
  bool hasCode(DiagCode Code) const;

  /// All collected diagnostics rendered one per line (plus a "... and N
  /// more" trailer when the cap was hit).
  std::string render() const;

private:
  void report(Diagnostic D);

  size_t MaxErrors;
  size_t NumErrors = 0;  ///< Total errors reported, including dropped ones.
  size_t NumDropped = 0; ///< Diagnostics dropped after the cap was reached.
  std::vector<Diagnostic> Diags;
};

/// Prints \p Message to stderr and aborts. The internal-invariant
/// counterpart to the collected mode: pass-boundary verification failures
/// are compiler bugs, so they stop the process with the rendered evidence.
[[noreturn]] void fatal(const std::string &Message);

} // namespace pf

#endif // PIMFLOW_SUPPORT_DIAGNOSTICS_H
