//===- runtime/ChannelScoreboard.h - Channel circuit breakers -------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-channel health scoreboard and circuit breakers for the serving
/// runtime (docs/INTERNALS.md section 14). The PR 4 recovery ladder reacts
/// to each fault in isolation; under a serving workload that re-grants a
/// flaky channel to the very next request, paying the interruption again.
/// ChannelScoreboard accumulates recovery *outcomes* across requests: after
/// `TripThreshold` consecutive failures a channel's breaker opens, the
/// serve loop quarantines it out of the ChannelAllocator, and the channel
/// only returns to service after a successful cooldown probe (seeded
/// jittered schedule on the deterministic virtual clock — never
/// wall-clock, so summaries stay byte-identical from run to run).
///
/// A failure on a channel whose breaker has not tripped is still a
/// quarantine for the duration of the outage window; the breaker decides
/// whether the channel returns automatically when the outage ends (Closed)
/// or must pass a probe first (Open).
///
/// The scoreboard keeps a chronological event log (quarantine / trip /
/// probe / readmit), which the chaos-under-serve tests replay to assert
/// that a tripped channel is never granted until re-admitted.
///
/// Not thread-safe: owned and driven by the single-threaded serve event
/// loop.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_RUNTIME_CHANNELSCOREBOARD_H
#define PIMFLOW_RUNTIME_CHANNELSCOREBOARD_H

#include <cstdint>
#include <vector>

namespace pf {

/// One entry of the health event log, on the serve loop's virtual clock.
struct BreakerEvent {
  enum class Kind : uint8_t {
    Quarantine, ///< channel taken out of service (outage start)
    Trip,       ///< breaker opened after TripThreshold consecutive failures
    Probe,      ///< cooldown probe fired; Ok = channel was healthy
    Readmit,    ///< channel returned to service; Ok = via a breaker probe
  };
  int64_t TimeNs = 0;
  int Channel = 0;
  /// Serve request attributed to the event: the grant holder whose
  /// interruption caused a quarantine/trip, inherited by the trip's
  /// cooldown probes and readmit. -1 when no request was involved
  /// (static dead channels, outage-end recoveries).
  int ReqId = -1;
  Kind K = Kind::Quarantine;
  bool Ok = false;
};

/// Returns "quarantine"/"trip"/"probe"/"readmit".
const char *breakerEventKindName(BreakerEvent::Kind K);

class ChannelScoreboard {
public:
  /// \p TripThreshold consecutive failures open a channel's breaker;
  /// <= 0 disables tripping entirely. \p CooldownNs is the base probe
  /// spacing; each probe adds a seeded jitter in [0, CooldownNs/4] drawn
  /// from \p Seed so probe instants are deterministic but not phase-locked
  /// across channels.
  ChannelScoreboard(int Channels, int TripThreshold, int64_t CooldownNs,
                uint64_t Seed);

  /// Records a failure (an outage hitting the channel) at virtual time
  /// \p NowNs, attributed to serve request \p ReqId (-1 = none). Returns
  /// true when this failure trips the breaker (logged as a Trip event);
  /// the caller schedules the first probe. The tripping request is
  /// remembered so later probes/readmits of the chain stay attributed.
  bool recordFailure(int Ch, int64_t NowNs, int ReqId = -1);

  /// Records a successful completion on \p Ch, resetting its consecutive
  /// failure count (closed breakers only; an open breaker's state is
  /// owned by the probe path).
  void recordSuccess(int Ch);

  /// Logs the quarantine of \p Ch (the allocator-side exclusion),
  /// attributed to the interrupted request when there was one.
  void noteQuarantine(int Ch, int64_t NowNs, int ReqId = -1);

  /// Logs a non-breaker readmission: the outage ended and the (closed)
  /// breaker lets the channel return without a probe.
  void noteRecovery(int Ch, int64_t NowNs);

  /// The next probe instant for \p Ch after \p NowNs: base cooldown plus
  /// the seeded per-attempt jitter. Advances the channel's attempt
  /// counter.
  int64_t nextProbeNs(int Ch, int64_t NowNs);

  /// Registers a probe outcome at \p NowNs. A healthy probe closes the
  /// breaker, resets the failure count, and logs the Readmit; returns
  /// \p Healthy so call sites can chain the allocator readmit.
  bool probe(int Ch, int64_t NowNs, bool Healthy);

  bool open(int Ch) const;
  int consecutiveFailures(int Ch) const;
  int tripCount(int Ch) const;
  /// The request whose failure last tripped \p Ch's breaker (-1 when the
  /// breaker never tripped or no request was attributed).
  int lastTripRequest(int Ch) const;

  int64_t trips() const { return Trips; }
  int64_t probes() const { return Probes; }
  int64_t readmits() const { return Readmits; }
  int64_t recoveries() const { return Recoveries; }

  /// Chronological event log (virtual-time order: the single-threaded
  /// serve loop appends in nondecreasing NowNs).
  const std::vector<BreakerEvent> &events() const { return Events; }

private:
  struct PerChannel {
    int Consecutive = 0;
    int Trips = 0;
    int ProbeAttempts = 0;
    int LastTripReq = -1;
    bool Open = false;
  };

  PerChannel &state(int Ch);
  const PerChannel *stateOrNull(int Ch) const;
  void note(BreakerEvent::Kind K, int Ch, int64_t NowNs, bool Ok,
            int ReqId = -1);

  int TripThreshold;
  int64_t CooldownNs;
  uint64_t Seed;
  std::vector<PerChannel> Channels;
  std::vector<BreakerEvent> Events;
  int64_t Trips = 0;
  int64_t Probes = 0;
  int64_t Readmits = 0;
  int64_t Recoveries = 0;
};

} // namespace pf

#endif // PIMFLOW_RUNTIME_CHANNELSCOREBOARD_H
