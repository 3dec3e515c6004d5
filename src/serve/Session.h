//===- serve/Session.h - Per-request serving session ------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One admitted inference request's execution context (docs/INTERNALS.md
/// section 13): its identity, its channel grant, and its outcome/timing
/// record on the serve loop's virtual clock.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_SERVE_SESSION_H
#define PIMFLOW_SERVE_SESSION_H

#include <cstdint>
#include <vector>

#include "runtime/ChannelAllocator.h"
#include "serve/LoadGen.h"

namespace pf::serve {

/// Terminal state of a request.
enum class RequestOutcome : uint8_t {
  Served,        ///< ran with its full planned channel set
  Degraded,      ///< ran on a smaller (but >= floor) channel set
  FloorFallback, ///< no channels free: ran entirely on the GPU
  Shed,          ///< rejected (queue full or deadline expired), never ran
};

const char *outcomeName(RequestOutcome O);

/// Why a request ended up shed, degraded, or floored — the breakdown the
/// serve summary and report surface (docs/INTERNALS.md section 14).
enum class OutcomeReason : uint8_t {
  None,            ///< served in full, nothing to explain
  Contention,      ///< degraded at admission: pool busy, >= floor free
  BelowFloor,      ///< floored: fewer than floor channels were grantable
  FaultRetry,      ///< re-granted mid-run after a channel outage interrupt
  RetryBudget,     ///< floored: a retry was due but the budget was spent
  QueueFull,       ///< shed at arrival: wait line at --max-queue
  DeadlineExpired, ///< shed in queue: deadline passed before admission
};

const char *outcomeReasonName(OutcomeReason R);

/// Deadline classification of a request (none when it carried no
/// deadline).
enum class DeadlineState : uint8_t {
  None,          ///< no deadline attached
  Met,           ///< completed at or before arrival + deadline
  MissedRun,     ///< ran to completion, but past the deadline
  ExpiredQueued, ///< shed from the queue once the deadline passed
};

const char *deadlineStateName(DeadlineState D);

/// One execution attempt of an admitted request: the interval between an
/// admission (or mid-run re-grant) and its projected completion — or the
/// outage interrupt that cut it short. The serve event loop appends one
/// record per grant decision, so a request's attempt list is its full
/// virtual-time history: Attempts.size() == 1 + interrupts. The request
/// trace renders each attempt as one exec/retry span
/// (docs/INTERNALS.md section 15).
struct ExecAttempt {
  int64_t StartNs = 0;
  /// Projected completion when the attempt ran out, or the interrupt
  /// instant when an outage cut it (Interrupted below).
  int64_t EndNs = 0;
  std::vector<int> Channels; ///< granted ids (empty = GPU floor)
  RequestOutcome Outcome = RequestOutcome::Served;
  OutcomeReason Reason = OutcomeReason::None;
  bool Interrupted = false;
  /// Ordinal of the ChannelOutage window that interrupted the attempt
  /// (-1 when it ran to completion).
  int OutageId = -1;
  /// Unit-run device busy split under the attempt's granted config — the
  /// exec-phase breakdown `pimflow report --request=` renders.
  double UnitGpuBusyNs = 0.0;
  double UnitPimBusyNs = 0.0;

  int64_t durationNs() const { return EndNs - StartNs; }
};

/// One request's session: identity, virtual-time bookkeeping from the
/// serve event loop, and the channel grant it ran under.
struct Session {
  Request Req;
  RequestOutcome Outcome = RequestOutcome::Shed;
  OutcomeReason Reason = OutcomeReason::None;

  /// Channels the plan wanted / the allocator granted (granted ids kept
  /// for the pressure tests' disjointness assertions).
  int ChannelsWanted = 0;
  std::vector<int> Channels;

  /// Virtual times (ns): admission start and completion. A shed request
  /// keeps Start == End == the shed instant (arrival, or the deadline
  /// expiry for a queue-expired request).
  int64_t StartNs = 0;
  int64_t EndNs = 0;

  /// Absolute deadline (arrival + budget); 0 = none.
  int64_t DeadlineNs = 0;

  /// Mid-run fault retries this session consumed (each one re-granted
  /// channels and restarted the service interval on the virtual clock).
  int Retries = 0;

  /// Completion-queue generation: stale completions from before an
  /// interrupt are lazily discarded by the event loop.
  int Gen = 0;

  /// Channel-outage interrupts this session absorbed. Every interrupt
  /// closes one attempt and opens the next, so for a ran() session
  /// Attempts.size() == Interrupts + 1 (the chaos tests' attempt
  /// conservation law). Unlike Retries this also counts interrupts the
  /// retry budget denied (which demote to the floor without a re-grant).
  int Interrupts = 0;

  /// Stable trace correlation id: requestTraceId(Spec.Seed, Req.Id),
  /// stamped at stream generation so it is identical across reruns of
  /// the same (spec, options) input.
  uint64_t TraceId = 0;

  /// Whether the run's --trace-sample policy selected this request; only
  /// sampled sessions emit request-lane trace events and report
  /// segments.
  bool Sampled = false;

  /// Grant-to-grant execution history, one entry per admission or
  /// mid-run re-grant (empty for shed requests).
  std::vector<ExecAttempt> Attempts;

  /// Unit (batch-1) simulated latency / energy of the engine run that
  /// served this request; virtual service time is Batch * UnitNs.
  double UnitNs = 0.0;
  double UnitEnergyJ = 0.0;

  int channelsGranted() const { return static_cast<int>(Channels.size()); }
  bool ran() const { return Outcome != RequestOutcome::Shed; }
  int64_t queueDelayNs() const { return StartNs - Req.ArrivalNs; }
  int64_t serviceNs() const { return EndNs - StartNs; }
  int64_t latencyNs() const { return EndNs - Req.ArrivalNs; }

  bool hasDeadline() const { return DeadlineNs > 0; }
  DeadlineState deadlineState() const {
    if (!hasDeadline())
      return DeadlineState::None;
    if (!ran())
      return Reason == OutcomeReason::DeadlineExpired
                 ? DeadlineState::ExpiredQueued
                 : DeadlineState::None;
    return EndNs <= DeadlineNs ? DeadlineState::Met
                               : DeadlineState::MissedRun;
  }
};

} // namespace pf::serve

#endif // PIMFLOW_SERVE_SESSION_H
