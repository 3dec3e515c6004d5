//===- obs/PerfReport.h - Unified performance report ------------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine-readable performance report behind the driver's
/// `--perf-report=<path>` flag, a run's one machine-readable export: one
/// schema-versioned JSON document merging the `renderReport` numbers
/// (stats, timeline, segments, recovery), the whole telemetry registry,
/// the timeline attribution (critical path, slack, lane utilization,
/// per-channel phase cycles) and the search's decision trail.
/// `renderPerfReportText` renders a parsed report for humans (`pimflow
/// report`), and `perfDiff` compares two reports (or two bench-results
/// dumps) with per-metric relative thresholds — the regression gate behind
/// `pf_perf_diff` and ci.sh tier 5.
///
/// Schema (version 2, lower-is-better metrics unless noted):
///   { schema_version, kind: "pimflow-perf-report", model, policy,
///     end_to_end_ns, energy_j, conv_layer_ns, fc_layer_ns,
///     timeline:{total_ns, gpu_busy_ns, pim_busy_ns, energy_j,
///               contention_slowdown, scheduled_nodes},
///     critical_path:{length_ns, gpu_ns, pim_ns,
///                    steps:[{node,id,device,start_ns,end_ns,reason,
///                            blocker}]},
///     slack:[{node,id,slack_ns,critical}],
///     lanes:[{name,channel,busy_ns,idle_ns,utilization,intervals,gaps}],
///     pim_phases:[{channel,gwrite_cycles,g_act_cycles,comp_cycles,
///                  readres_cycles,retry_cycles,stall_cycles,busy_cycles,
///                  bank_busy_cycles,utilization}],
///     decisions:[{node,id,pim_candidate,chosen_mode,chosen_ratio_gpu,
///                 chosen_ns,gpu_only_ns,gain_ns,
///                 candidates:[{mode,ratio_gpu,ns}]}],
///     segments:{gpu,pim,md_dp,pipeline}, stats:{...},
///     recovery:{...} (only when fault recovery ran), counters:{...},
///     metrics:{histograms:{<name>:{count,sum,min,max,mean,p50,p90,p99,
///                                  p999,rel_error_bound}},
///              gauges:{<name>:value},
///              windows:{<name>:{domain,bucket_width,span_ticks,count,
///                               sum,mean}}} }
///
/// Version 2 added the `metrics` section (obs/Metrics: bounded-error
/// quantile histograms, gauges, sliding windows); every v1 key is
/// unchanged, so v1 consumers keep working.
///
/// Version 3 added the serving mode: the counter/metric namespace now
/// carries `serve.*` families (request latency / queue-delay histograms,
/// served/degraded/shed counters), the sections snapshot the *active*
/// observability scope (obs/Scope.h) so a session can report on itself,
/// and `pimflow serve --perf-report` emits the sibling document kind
/// `pimflow-serve-report` (src/serve/ServeReport.h) sharing this version
/// and the counters/metrics sections. Every v2 key is unchanged.
///
/// Version 4 added per-request tracing to the serve sibling
/// (docs/INTERNALS.md section 15): the config echoes `trace_sample`, a
/// top-level `sampled_requests` array lists the ids the policy selected,
/// and every request row carries `trace_id` / `sampled` / `interrupts`
/// plus — for sampled requests — a `segments` array of queue/exec/retry
/// intervals on the virtual clock (the substrate of `pimflow report
/// --request=<id>`). Every v3 key is unchanged.
///
/// Still version 4: since the registry has one histogram type,
/// `metrics.histograms` also carries `profiler.measure_wall_us` and
/// `search.segment_predicted_us`. The exporters plan nothing: `stats`,
/// `lanes` and `pim_phases` come from the timeline's kernel records, so a
/// remapped run reports the plans that ran, PIM lane k being the k-th
/// surviving channel. No key changed.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_OBS_PERFREPORT_H
#define PIMFLOW_OBS_PERFREPORT_H

#include <string>
#include <vector>

#include "core/Report.h"
#include "obs/Attribution.h"
#include "obs/Json.h"

namespace pf::obs {

/// Current report schema version.
inline constexpr int PerfReportSchemaVersion = 4;

/// Renders the full performance report of \p R as JSON.
std::string renderPerfReport(const CompileResult &R);

/// Emits the shared `counters` and `metrics` report sections (snapshotted
/// from the active observability scope, name-sorted for byte-stable
/// output) into \p W, which must be positioned inside an open object.
/// Used by renderPerfReport and by the serve report so both document
/// kinds stay field-compatible.
void emitObsSections(JsonWriter &W);

/// Writes renderPerfReport(R) to \p Path; false on I/O failure.
bool writePerfReport(const CompileResult &R, const std::string &Path);

/// Renders a parsed report document as human-readable text (summary lines
/// plus critical-path / lane-utilization / phase / metric / decision
/// tables).
std::string renderPerfReportText(const JsonValue &Report);

/// Renders only the schema-v2 `metrics` section (histogram quantiles,
/// gauges, windows) of a parsed report — the `pimflow report --metrics`
/// view. Empty string when the report has no metrics section.
std::string renderPerfReportMetricsText(const JsonValue &Report);

/// Relative-threshold configuration of the diff gate.
struct PerfDiffOptions {
  /// A gated metric regresses when
  ///   Cur - Base > RelThreshold * max(|Base|, AbsEpsilon),
  /// i.e. the usual relative rule, with an absolute floor so a zero or
  /// near-zero baseline still gates: 0 -> nonzero is a regression, not a
  /// divide-by-zero blind spot.
  double RelThreshold = 0.25;
  /// Absolute floor substituted for |Base| in the rule above when the
  /// baseline is smaller than this.
  double AbsEpsilon = 1e-9;
};

/// One compared metric.
struct MetricDelta {
  std::string Name;
  double BaseValue = 0.0;
  double CurValue = 0.0;
  /// (Cur - Base) / Base; 0 when Base is 0 (display only — the gating
  /// rule uses the epsilon-floored form in PerfDiffOptions).
  double RelChange = 0.0;
  bool Regressed = false;
};

/// Outcome of comparing two report (or bench-results) documents.
struct PerfDiffResult {
  std::vector<MetricDelta> Deltas;
  /// Structural problems (metric present in the baseline but missing from
  /// the current document); these also count as regressions.
  std::vector<std::string> Notes;
  bool HasRegression = false;
};

/// Compares \p Cur against \p Base. Both documents must be the same
/// format: a perf report (gates end_to_end_ns, energy_j, conv_layer_ns,
/// fc_layer_ns, critical_path.length_ns, timeline.gpu_busy_ns,
/// timeline.pim_busy_ns, plus the p50/p99 of every baseline
/// metrics.histograms entry whose name does not contain "wall" —
/// wall-clock distributions are machine-dependent and never gate) or a
/// bench-results dump — detected by its "results" array — where every
/// baseline (figure, key) row gates end_to_end_ns and energy_j. Rows only
/// in \p Cur are new coverage and pass; rows missing from \p Cur are
/// notes and fail.
PerfDiffResult perfDiff(const JsonValue &Base, const JsonValue &Cur,
                        const PerfDiffOptions &Options = {});

/// Renders \p R as an aligned table plus notes.
std::string renderPerfDiff(const PerfDiffResult &R);

} // namespace pf::obs

#endif // PIMFLOW_OBS_PERFREPORT_H
