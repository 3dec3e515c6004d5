//===- runtime/Recovery.h - Fault recovery and degradation ------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Graceful degradation for the PIM channel runtime: given a device-annotated
/// graph and a FaultModel, the RecoveryExecutor produces a valid Timeline no
/// matter what the fault schedule does — never an assert, never a hang.
///
/// The decision ladder, applied before the execution engine ever runs:
///
///  1. Dead and stalled channels are removed from the PIM channel group.
///     If enough channels survive, PIM work is *remapped*: the command
///     generator re-plans every PIM kernel against the shrunken group (the
///     same Fig. 6 enumeration that picked the original channel
///     partitioning simply picks a new one over fewer channels).
///  2. If survivors drop below the configured floor, the whole graph falls
///     back to GPU-only via the existing device annotations.
///  3. Transient faults that outlast the retry budget demote just the
///     affected node to the GPU; bounded retries merely inflate its time.
///
/// Recovery only ever flips Device annotations — it never changes graph
/// structure or numerics — so a recovered graph is bit-identical to the
/// original under the runtime/Equivalence oracle. Degradation is reported
/// as warning diagnostics (fault.*) plus obs counters, keeping
/// hasErrors() == false for every successfully recovered run.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_RUNTIME_RECOVERY_H
#define PIMFLOW_RUNTIME_RECOVERY_H

#include <string>
#include <vector>

#include "pim/FaultModel.h"
#include "runtime/ExecutionEngine.h"

namespace pf {

/// Knobs of the recovery policy.
struct RecoveryOptions {
  /// Retry/backoff/watchdog policy for transient and stalled commands.
  RetryPolicy Retry;
  /// Minimum surviving PIM channels to keep running in mixed mode; fewer
  /// survivors trigger the whole-graph GPU fallback. Clamped to >= 1 (zero
  /// surviving channels can never host PIM work).
  int PimFloor = 1;
};

/// Degradation summary of one recovered execution; a fault-injected
/// compile carries it as CompileResult::Recovery.
struct RecoverySummary {
  /// Something degraded: channels lost, nodes remapped or demoted.
  bool Degraded = false;
  int DeadChannels = 0;
  int StalledChannels = 0;
  int SurvivingChannels = 0;
  /// PIM nodes re-planned over the shrunken channel group.
  int NodesRemapped = 0;
  /// Nodes demoted to the GPU (floor fallback or exhausted retries).
  int NodesFellBack = 0;
  /// Total successful command retries absorbed into the timeline.
  int TransientRetries = 0;

  /// Human-readable degradation notes, one per event, in decision order.
  std::vector<std::string> Notes;
};

/// Outcome of one recovered execution: its summary plus what ran.
struct RecoveryResult : RecoverySummary {
  /// A valid timeline was produced (recovery itself cannot fail for valid
  /// inputs; Ok == false means the *input* was bad — invalid config or
  /// unschedulable graph — and DE carries the errors).
  bool Ok = false;

  /// The graph actually executed. Differs from the input only in Device
  /// annotations (GPU fallbacks); structure and numerics are untouched.
  Graph Executed{"empty"};
  /// The resulting schedule over the (possibly degraded) configuration.
  Timeline Schedule;
};

/// Executes graphs against a fault schedule with retry, remap, and fallback.
class RecoveryExecutor {
public:
  RecoveryExecutor(const SystemConfig &Config, const FaultModel &Faults,
                   const RecoveryOptions &Options = {});

  /// Runs \p G to a valid Timeline, degrading as the fault schedule
  /// demands. Degradations are warning() diagnostics in \p DE; errors are
  /// only emitted for invalid inputs (config.invalid, exec.*), in which
  /// case Ok is false.
  RecoveryResult run(const Graph &G, DiagnosticEngine &DE) const;

  const SystemConfig &config() const { return Config; }
  const FaultModel &faults() const { return Faults; }

private:
  SystemConfig Config;
  FaultModel Faults;
  RecoveryOptions Options;
};

} // namespace pf

#endif // PIMFLOW_RUNTIME_RECOVERY_H
