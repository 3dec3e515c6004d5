//===- obs/Anomaly.cpp - In-run anomaly watchdog rules ----------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Anomaly.h"

#include "obs/Counters.h"
#include "support/Format.h"

using namespace pf;
using namespace pf::obs;

int pf::obs::evaluateAnomalies(DiagnosticEngine &DE,
                               const AttributionReport *A) {
  int Warnings = 0;
  Registry &R = activeRegistry();

  // Rule 1: tail-latency ratio per HDR histogram. Wall-clock histograms
  // are machine- and load-dependent (host scheduling alone makes 100x
  // tails), so only simulated distributions are judged.
  for (const auto &[Name, Q] : R.histogramSnapshot()) {
    if (Q.Count < AnomalyMinHistogramCount || Q.P50 <= 0.0 ||
        Name.find("wall") != std::string::npos)
      continue;
    const double Ratio = Q.P99 / Q.P50;
    if (Ratio <= AnomalyTailRatioMax)
      continue;
    ++Warnings;
    DE.warning(DiagCode::AnomalyTailLatency, Name,
               formatStr("p99/p50 ratio %.1f exceeds %.1f "
                         "(p50=%.0f, p99=%.0f over %lld samples)",
                         Ratio, AnomalyTailRatioMax, Q.P50, Q.P99,
                         static_cast<long long>(Q.Count)));
  }

  // Rule 2: idle-gap fraction per attributed lane.
  if (A) {
    for (const LaneUsage &L : A->Lanes) {
      if (L.BusyNs <= 0.0)
        continue; // a lane that ran nothing is unused, not anomalous
      const double Span = L.BusyNs + L.IdleNs;
      const double IdleFraction = Span > 0.0 ? L.IdleNs / Span : 0.0;
      if (IdleFraction <= AnomalyIdleGapFractionMax)
        continue;
      ++Warnings;
      DE.warning(DiagCode::AnomalyIdleGap, L.Name,
                 formatStr("idle fraction %.2f exceeds %.2f "
                           "(%zu gap(s), busy %.0f ns of %.0f ns)",
                           IdleFraction, AnomalyIdleGapFractionMax,
                           L.Gaps.size(), L.BusyNs, Span));
    }
  }

  // Rule 3: average retries per fault-injected simulator run.
  {
    const int64_t Retries = R.counter("pim.sim.retries").value();
    const int64_t FaultRuns = R.counter("pim.sim.fault_runs").value();
    if (FaultRuns > 0) {
      const double Rate =
          static_cast<double>(Retries) / static_cast<double>(FaultRuns);
      if (Rate > AnomalyRetryRateMax) {
        ++Warnings;
        DE.warning(DiagCode::AnomalyRetryRate, "pim.sim.retries",
                   formatStr("%.1f retries per faulted run exceeds %.1f "
                             "(%lld retries over %lld runs)",
                             Rate, AnomalyRetryRateMax,
                             static_cast<long long>(Retries),
                             static_cast<long long>(FaultRuns)));
      }
    }
  }

  return Warnings;
}
