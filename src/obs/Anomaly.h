//===- obs/Anomaly.h - In-run anomaly watchdog rules ------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Threshold rules over the active telemetry registry (obs/Counters) and a
/// timeline attribution: tail-latency blowups (p99/p50) of simulated
/// histograms, lane idle-gap fractions, and retry rates. Violations become
/// structured DiagnosticEngine *warnings* (anomaly.tail-latency,
/// anomaly.idle-gap, anomaly.retry-rate) so a regression surfaces in the
/// run that caused it, not only at the tier-5 diff gate. The default
/// thresholds are deliberately loose — a healthy run must stay quiet;
/// tests and operators tighten them per use case.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_OBS_ANOMALY_H
#define PIMFLOW_OBS_ANOMALY_H

#include "obs/Attribution.h"
#include "support/Diagnostics.h"

namespace pf::obs {

/// Watchdog thresholds; every rule fires as a warning, never an error.
struct AnomalyRules {
  /// Maximum p99/p50 ratio of any HDR histogram (with p50 > 0) before the
  /// tail is flagged. Histograms whose name contains "wall" are skipped:
  /// the judged distributions are simulated, so a 100x tail means a
  /// structurally imbalanced plan, not scheduler noise.
  double TailRatioMax = 100.0;
  /// Maximum idle fraction of a lane that did schedule work. 1.0 would
  /// never fire; a lane over this threshold mostly waited.
  double IdleGapFractionMax = 0.95;
  /// Maximum average retries per fault-injected simulator run.
  double RetryRateMax = 8.0;
  /// Histograms with fewer samples than this are never judged (tiny
  /// samples make meaningless tails).
  int64_t MinHistogramCount = 16;
};

/// Evaluates every rule against the active registry and, when \p A is
/// non-null, the lane usage of \p A. Returns the number of warnings
/// reported into \p DE.
int evaluateAnomalies(DiagnosticEngine &DE, const AttributionReport *A,
                      const AnomalyRules &Rules = {});

} // namespace pf::obs

#endif // PIMFLOW_OBS_ANOMALY_H
