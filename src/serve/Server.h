//===- serve/Server.h - Closed-loop multi-tenant serving --------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `pimflow serve` engine (docs/INTERNALS.md section 13): admits a
/// deterministic request stream (serve/LoadGen.h) against pre-compiled
/// plans, arbitrating the PIM channel group between concurrent requests
/// with a ChannelAllocator and bounding concurrency with an admission
/// controller.
///
/// Determinism contract: outcomes are decided by a discrete-event
/// simulation over *virtual* nanoseconds, never by wall-clock races. The
/// server first prices every (model, granted-channel-count) pair once —
/// the duration table — and the event loop then schedules admissions and
/// completions from the table. Everything runs on the caller's thread:
/// each completed request's engine run is re-executed inline, under a
/// muted scope and on the engine that priced its grant, only to
/// cross-check the table bit for bit. A given (models, spec, options)
/// input therefore yields byte-identical summaries on every run.
///
/// Admission policy, in order, for a request at the head of the line:
///  1. In-flight bound reached -> wait in the FIFO queue (or shed when
///     the queue is at --max-queue).
///  2. Otherwise take a channel grant: the full planned set when free,
///     any >= --pim-floor subset as a *degraded* run (the PR 4 recovery
///     ladder's remap semantics: same plan, shrunken Pim.Channels),
///  3. or, with fewer than floor channels free, fall back to the GPU
///     floor (every PIM node demoted, zero channels owned).
///
/// The arbitrated pool is the machine's PIM channel group
/// (--channel-pool, default: the per-plan planned count). When the pool
/// equals the planned count, grants are all-or-floor — every taker wants
/// the whole group; a pool that is not a multiple of the planned count
/// (e.g. 24 channels shared by 16-channel plans) is what leaves partial
/// remainders free and makes degraded grants reachable.
///
/// Resilience (docs/INTERNALS.md section 14): requests may carry
/// deadlines (shed once expired in queue, classified late when run past
/// them); the fault timeline's windowed outages interrupt live grants
/// mid-stream, consuming bounded retry budgets before demoting to the
/// GPU floor; and a ChannelScoreboard circuit breaker quarantines channels
/// that fail repeatedly, re-admitting them via seeded cooldown probes.
/// Everything runs on the same virtual clock, so a hostile machine is
/// exactly as deterministic as a healthy one.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_SERVE_SERVER_H
#define PIMFLOW_SERVE_SERVER_H

#include <memory>
#include <string>
#include <vector>

#include "core/PimFlow.h"
#include "obs/Scope.h"
#include "pim/FaultModel.h"
#include "runtime/ChannelScoreboard.h"
#include "serve/RequestTrace.h"
#include "serve/Session.h"

namespace pf::serve {

/// Serve-mode configuration over the compile-side PimFlowOptions.
struct ServerOptions {
  OffloadPolicy Policy = OffloadPolicy::PimFlow;
  /// Compile options; PimChannels is the per-request planned channel
  /// count and PimFloor the degraded minimum, mirroring the recovery
  /// ladder's use of the same fields.
  PimFlowOptions Flow;
  /// Max concurrently executing requests (--max-inflight).
  int MaxInflight = 4;
  /// Max requests waiting behind the in-flight bound (--max-queue);
  /// arrivals beyond it are shed.
  int MaxQueue = 8;
  /// Size of the shared PIM channel group the allocator arbitrates
  /// (--channel-pool); 0 means the per-plan planned count. See the file
  /// comment for why a pool larger than the planned count is the
  /// interesting multi-tenant configuration.
  int PoolChannels = 0;

  // Resilience knobs (docs/INTERNALS.md section 14).

  /// Default per-request latency budget in microseconds
  /// (--default-deadline-us); applied to requests whose spec carried no
  /// deadline-us. 0 = no deadline.
  int64_t DefaultDeadlineUs = 0;
  /// Global mid-run retry budget across the whole stream
  /// (--retry-budget): every channel-outage interrupt that re-grants
  /// channels consumes one unit; once spent, interrupted requests demote
  /// straight to the GPU floor. 0 disables mid-run retries entirely.
  int RetryBudget = 256;
  /// Consecutive failures that trip a channel's circuit breaker
  /// (--breaker-threshold); <= 0 disables tripping.
  int BreakerThreshold = 2;
  /// Base spacing of breaker cooldown probes in virtual microseconds
  /// (--breaker-cooldown-us); each probe adds a seeded jitter.
  int64_t BreakerCooldownUs = 500;
  /// Fault schedule evaluated against the serve loop's virtual clock:
  /// static dead channels are quarantined from t = 0 and windowed
  /// outages (dead@t1..t2:ch) open and close mid-stream. Slow/stall/
  /// transient entries are inert in serve mode (they price per-run, not
  /// per-stream).
  FaultModel Faults;

  /// Which requests keep full-fidelity traces (--trace-sample); the
  /// default traces everything. Sampling also gates the per-request
  /// segment lists in the serve report.
  TraceSamplePolicy Sample;
};

/// Aggregate outcome of a serve run. Sessions are ordered by request id;
/// percentiles are exact nearest-rank statistics over the non-shed
/// requests (integer ns, so summaries are byte-stable).
struct ServeResult {
  std::vector<std::string> ModelNames;
  std::vector<std::unique_ptr<Session>> Sessions;

  /// Echoed configuration (summary header / serve report).
  std::string PolicyName;
  int PlannedChannels = 0;
  int PoolChannels = 0;
  int Floor = 0;
  int MaxInflight = 0;
  int MaxQueue = 0;
  uint64_t Seed = 0;
  int64_t DefaultDeadlineUs = 0;
  int RetryBudget = 0;
  int BreakerThreshold = 0;
  int64_t BreakerCooldownUs = 0;
  std::string FaultSummary; ///< FaultModel::describe() of the timeline

  int Served = 0;
  int Degraded = 0;
  int FloorFallbacks = 0;
  int Shed = 0;

  /// Shed / floor reason breakdowns (sum to Shed / FloorFallbacks).
  int ShedQueueFull = 0;
  int ShedDeadline = 0;
  int FloorBelowFloor = 0;  ///< fewer than floor channels grantable
  int FloorRetryBudget = 0; ///< floored because the retry budget was spent

  /// Deadline classification over deadline-carrying requests.
  int DeadlineMet = 0;
  int DeadlineMissedRun = 0;
  int DeadlineExpiredQueued = 0;

  /// Resilience tallies.
  int FaultInterrupts = 0;   ///< live grants cut by a channel outage
  int RetriesUsed = 0;       ///< interrupts that re-granted channels
  int RetryBudgetDenied = 0; ///< interrupts demoted for lack of budget
  int64_t BreakerTrips = 0;
  int64_t BreakerProbes = 0;
  int64_t BreakerReadmits = 0;
  int64_t ChannelRecoveries = 0; ///< non-breaker outage-end readmissions

  /// Chronological health event log (quarantine/trip/probe/readmit on the
  /// virtual clock) — the chaos tests' quarantine-exclusion evidence.
  std::vector<BreakerEvent> HealthEvents;

  /// Every channel grant the loop handed out (admission and fault-retry
  /// re-grants), in event order: the other half of the quarantine
  /// invariant (a quarantined channel never appears in a grant).
  struct GrantEvent {
    int64_t TimeNs = 0;
    int ReqId = 0;
    std::vector<int> Channels;
  };
  std::vector<GrantEvent> Grants;

  /// The run's windowed outages clamped to the pool (with their timeline
  /// ordinals) — the fault lanes of the request trace.
  std::vector<ChannelOutage> Outages;

  /// Canonical spelling of the sampling policy ("all" / "tail:8").
  std::string SamplePolicy;
  /// Requests the policy selected, ascending; those sessions carry
  /// Sampled = true.
  std::vector<int> SampledRequests;

  int64_t LatencyP50Ns = 0;
  int64_t LatencyP99Ns = 0;
  int64_t LatencyMaxNs = 0;
  int64_t QueueDelayP50Ns = 0;
  int64_t QueueDelayP99Ns = 0;
  double TotalEnergyJ = 0.0;

  int completed() const { return Served + Degraded + FloorFallbacks; }
};

/// Renders the golden per-request outcome summary: one header, one line
/// per request in id order, and the aggregate tail. Byte-deterministic
/// for a given (models, spec, options) input.
std::string renderServeSummary(const ServeResult &R);

/// The serving engine. Construction only stores the models; the first
/// run() prepares them: it compiles (or replays from the plan cache) every
/// model's plan, materializes its transformed graph plus the GPU-floor
/// demotion, and prices the duration table. Every run() executes its
/// request stream against what that first run prepared, so a caller that
/// times runs warms the server with one run first.
class Server {
public:
  Server(std::vector<std::pair<std::string, Graph>> Models,
         ServerOptions Options);

  /// Runs \p Spec's request stream to completion and returns every
  /// session. Also records the serve.* counter/histogram families into
  /// the *caller's* active observability scope (the driver's globals for
  /// the CLI) for the perf-report / Prometheus exports. With a non-null
  /// \p DE, survivable irregularities (a node missing from a
  /// partially-executed timeline) surface as warnings instead of dying.
  ServeResult run(const LoadSpec &Spec, DiagnosticEngine *DE = nullptr);

  /// Renders the per-request Chrome trace of \p R (which must have come
  /// from this server's run(): node-level exec-phase spans replay the
  /// prepared unit timelines). Only sampled requests get lanes; the
  /// document is built from virtual-time records alone
  /// (docs/INTERNALS.md section 15).
  std::string renderTrace(const ServeResult &R) const;

  /// Writes renderTrace(R) to \p Path; false on I/O failure.
  bool writeTrace(const ServeResult &R, const std::string &Path) const;

  const ServerOptions &options() const { return Options; }

private:
  struct PreparedModel {
    std::string Name;
    Graph Model;        ///< original, as handed in
    Graph Materialized; ///< plan applied, verified (PIM annotations live)
    Graph FloorDemoted; ///< Materialized with every PIM node on the GPU
    /// The priced unit run by granted channel count c in [0, Planned]:
    /// c = 0 runs FloorDemoted, c >= PimFloor runs Materialized under
    /// Pim.Channels = c; entries in (0, PimFloor) are unused. TotalNs and
    /// EnergyJ price each request, and the node schedule is the span tree
    /// the request trace replays as exec-phase spans under each attempt.
    std::vector<Timeline> UnitTimelines;
  };

  SystemConfig configFor(int GrantedChannels) const;
  /// Compiles and materializes every model, builds the engines and prices
  /// the duration table; a no-op once done.
  void prepare();
  /// The priced unit timeline for (model, granted channels); nullptr
  /// when unprepared or the entry was never priced.
  const Timeline *unitTimeline(int ModelIdx, int Channels) const;

  ServerOptions Options;
  int Planned = 0;
  int Pool = 0;
  PimFlow Flow;
  std::vector<PreparedModel> Models;
  /// The engine of granted channel count c in [0, Planned], configured by
  /// configFor(c). It prices every model's unit run at c and re-runs every
  /// request granted c, so each distinct PIM kernel is planned once per
  /// grant and the cross-check runs plan nothing.
  std::vector<ExecutionEngine> Engines;
  bool Prepared = false;
  /// Where the engine runs no export reads record: prepare()'s pricing
  /// and each request's cross-check run. Its registry stays disabled.
  obs::Scope Muted;
};

} // namespace pf::serve

#endif // PIMFLOW_SERVE_SERVER_H
