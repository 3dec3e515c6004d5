#!/usr/bin/env bash
#===- tools/ci.sh - tier-1 verification + checked/sanitized trees ---------===#
#
# Part of the PIMFlow reproduction, released under the MIT license.
#
# Twelve tiers:
#   1. The tier-1 gate: configure, build, and run the full test suite in
#      build/ (exactly what ROADMAP.md specifies). It runs every figure of
#      the `pf_figures` driver and compares the Fig. 9 (paper sweep and
#      toy + resnet-18), Fig. 10 and micro dumps with bench/baselines/
#      byte for byte.
#   2. A PIMFLOW_CHECKED tree in build-checked/ running the full suite with
#      the graph verifier active at every pass boundary (PF_VERIFY_PASS in
#      ir/Verifier.h), so an invariant-breaking transform fails in CI even
#      when no test inspects the intermediate graph, with the profiler
#      measuring every sample it prices on the sample's micrograph and
#      aborting on any bit difference, and with the codegen oracle:
#      after each PIM mapping search, every candidate is simulated, and
#      the run aborts unless the first strictly fastest one is the kept
#      mapping with the same Ns bits.
#   3. A ThreadSanitizer tree in build-tsan/ running the telemetry suites,
#      the concurrent scoped-run suite (SessionReentrancy) and the serve,
#      search and plan suites. The library starts no thread: every verb,
#      serve included, runs on the caller's thread. What still runs on
#      several threads is the telemetry tests' own threads and
#      SessionReentrancy's engine runs side by side, which drive obs's
#      locks, atomics, thread-local scope routing and per-thread
#      flight-recorder rings.
#   4. The chaos tier: the seeded fault-schedule suite (tests/chaos/) in the
#      tier-1 tree, then again under TSan. The seeds are fixed inside the
#      tests, so a failure always names a reproducible schedule; per-test
#      ctest TIMEOUT properties turn any hang into a loud failure.
#   5. The perf smoke tier: the toy and resnet-18 perf reports must
#      validate under pf_json_check and render with `pimflow report` and
#      `pimflow report --metrics`. No threshold gates anything: every
#      simulated number is deterministic and pinned by equality (tier 1's
#      figure baselines and pinned-output tests, tier 7's plan goldens,
#      tier 8's serve golden).
#   6. The telemetry tier: a faulted chaos-seed run exporting the
#      Prometheus metrics exposition (validated by pf_metrics_check, with
#      quantile histograms required) and a flight-recorder dump (asserted
#      non-empty and carrying the recovery ladder's events), then an
#      unrecovered-fault run (--no-recovery) proving the auto-dump fires
#      on the failure path, then the same run's counter families compared
#      byte for byte across --trace-out / --perf-report combinations (no
#      exporter plans a kernel, so none adds to the counters), then a run
#      remapped onto 14 surviving channels whose perf report and Chrome
#      trace must validate and name no lane for the lost channels.
#   7. The plan-artifact tier: toy and squeezenet-1.1 compiles
#      byte-identical to their goldens, toy's `pimflow trace` dumps (the
#      emitted PIM command streams) byte-identical to theirs,
#      compile -> replay determinism (a
#      replayed plan reproduces the fresh run's execution line, skips the
#      search, and hits the plan cache on a recompile), then the corruption
#      matrix (truncation, bit flip, version skew, a plan that leaves a
#      node uncovered, wrong-model replay), each rejected non-zero with the
#      right diagnostic slug.
#   8. The serve tier: a seeded mixed-model `pimflow serve` run whose
#      summary must be byte-identical to a second, identical run's AND
#      match the committed golden (outcomes are decided in virtual time),
#      whose counter families match the second run's too, and whose serve
#      report and serve.* metrics exposition validate under pf_json_check
#      and pf_metrics_check. The run's total energy, which the summary
#      does not print, is pinned bit for bit by tier 1's
#      ServerTest.TierEightRunPinsTotalEnergy.
#   9. The chaos-under-serve tier: the seeded (load spec x fault timeline)
#      matrix in tests/serve_chaos/ (conservation, quarantine exclusion,
#      breaker lifecycle), then a CLI run with mid-stream channel outages,
#      deadlines, and a tight retry budget whose summary must stay
#      byte-identical from one run to the next while the breaker demonstrably
#      trips, probes, and re-admits; plus a tight-deadline burst proving
#      queued expiries shed and late completions classify.
#  10. The memory/UB tier: the serve + runtime resilience suites, the
#      PIM simulator + codegen suites (whose replicated-channel counts
#      multiply per-channel totals), the execution engine + scheduler
#      suites (whose ready list is NodeId arithmetic) and the number-text suites (the to_chars/from_chars
#      writers and readers, the plan-artifact parser over string views and
#      its re-checksummed mutation fuzz, the JSON writer), the
#      telemetry suites (the registry, its weighted histogram records,
#      the pinned telemetry of scoped runs), the pinned
#      mapping search (its pass-cost arithmetic and kept plans), the
#      graph and its readers and mutators (consumers() returns a reference
#      into the def-use index, so one held across a mutation reads freed
#      memory) and the profiler's priced samples (node views point into
#      the pricer's own values; task inputs are bit masks) rebuilt and
#      re-run under AddressSanitizer and UndefinedBehaviorSanitizer
#      (PIMFLOW_SANITIZE=address|undefined; UBSan findings are fatal).
#  11. The request-tracing tier: a 200-request chaos serve run with
#      --trace-out + --trace-sample=tail whose Chrome trace must be
#      byte-identical from one run to the next, pf_trace_check-clean (span
#      nesting, flow resolution, one root per lane), and must carry shed,
#      deadline-missed, fault, and breaker events; then `pimflow report
#      --request=` on a deadline-missed id must render its segment
#      breakdown; finally the tracing suites re-run under TSan.
#  12. The Release tier: the full suite in build-release/ configured with
#      -DCMAKE_BUILD_TYPE=Release, so a diagnostic that only appears at -O3
#      (under -Werror) cannot slip past the RelWithDebInfo trees.
#
# Usage: tools/ci.sh [jobs]   (jobs defaults to nproc)
#===----------------------------------------------------------------------===#

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"

echo "== tier 1: build + full test suite =="
cmake -B build -S .
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== tier 2: full suite with per-pass graph verification =="
cmake -B build-checked -S . -DPIMFLOW_CHECKED=ON
cmake --build build-checked -j "$JOBS"
ctest --test-dir build-checked --output-on-failure -j "$JOBS"

echo "== tier 3: ThreadSanitizer on the concurrency-facing suites =="
cmake -B build-tsan -S . -DPIMFLOW_SANITIZE=thread
cmake --build build-tsan -j "$JOBS" \
  --target support_test search_test obs_test serve_test
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -R 'Profiler|SearchEngine|AlgorithmDp|LayerExtract|FlightRecorder|RegistryTest|CountersAggregateAcrossThreads|LogLinearHistogram|PlanArtifact|PlanCache|PlanCorruption|SessionReentrancy|ChannelAllocator|ChannelPressure|PinnedTelemetry'

echo "== tier 4: chaos fault-injection suite (fixed seeds), then under TSan =="
ctest --test-dir build --output-on-failure -j "$JOBS" -R 'Chaos'
cmake --build build-tsan -j "$JOBS" --target chaos_test
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -R 'Chaos'

echo "== tier 5: perf smoke — reports validate and render =="
PERF_DIR=build/perf-smoke
mkdir -p "$PERF_DIR"
for NET in toy resnet-18; do
  ./build/tools/pimflow run "$NET" --dir="$PERF_DIR" \
    --perf-report="$PERF_DIR/$NET.perf.json" > /dev/null
  ./build/tools/pf_json_check "$PERF_DIR/$NET.perf.json" > /dev/null
  ./build/tools/pimflow report "$PERF_DIR/$NET.perf.json" > /dev/null
  ./build/tools/pimflow report --metrics "$PERF_DIR/$NET.perf.json" \
    > /dev/null
done

echo "== tier 6: telemetry — metrics exposition + flight recorder =="
TEL_DIR=build/telemetry-smoke
mkdir -p "$TEL_DIR"
# A faulted (recovered) chaos run exporting both telemetry artifacts.
./build/tools/pimflow run toy --dir="$TEL_DIR" \
  --faults=chaos --fault-seed=7 \
  --metrics-out="$TEL_DIR/toy.metrics.txt" \
  --flight-dump="$TEL_DIR/toy.flight.txt" \
  --perf-report="$TEL_DIR/toy.telemetry.perf.json" > /dev/null
./build/tools/pf_metrics_check --min-quantile-metrics=3 \
  "$TEL_DIR/toy.metrics.txt"
./build/tools/pf_json_check "$TEL_DIR/toy.telemetry.perf.json" > /dev/null
./build/tools/pimflow report --metrics \
  "$TEL_DIR/toy.telemetry.perf.json" > /dev/null
if ! [ -s "$TEL_DIR/toy.flight.txt" ]; then
  echo "error: flight dump missing or empty" >&2
  exit 1
fi
grep -q '# pimflow flight recorder dump' "$TEL_DIR/toy.flight.txt"
# The faulted run's trace must replay the recovery ladder, not just exist.
grep -qE 'kind=(retry|channel-remap|floor-fallback|node-fallback|channel-dead|watchdog-trip)' \
  "$TEL_DIR/toy.flight.txt"
# An unrecovered fault (--no-recovery lets a dead channel reach the
# engine) must exit non-zero AND leave the flight trace behind.
./build/tools/pimflow solve toy --dir="$TEL_DIR" > /dev/null
rm -f "$TEL_DIR/toy.crash.txt"
if ./build/tools/pimflow run toy \
  --graph="$TEL_DIR/toy.pimflow.graph" \
  --faults=dead:0 --no-recovery \
  --flight-dump="$TEL_DIR/toy.crash.txt" > /dev/null 2>&1; then
  echo "error: --no-recovery run with a dead channel did not fail" >&2
  exit 1
fi
if ! [ -s "$TEL_DIR/toy.crash.txt" ]; then
  echo "error: unrecovered fault did not leave a flight dump" >&2
  exit 1
fi
grep -q 'kind=channel-dead' "$TEL_DIR/toy.crash.txt"
grep -q 'kind=exec-error' "$TEL_DIR/toy.crash.txt"
# Exporters read the timeline's kernel records and plan nothing: with a
# warm profile log, the counter families of a run are the same whichever
# exports it writes.
./build/tools/pimflow run toy --dir="$TEL_DIR" > /dev/null
counters() { # <name> <export flags...>
  local NAME="$1"
  shift
  ./build/tools/pimflow run toy --dir="$TEL_DIR" \
    --metrics-out="$TEL_DIR/$NAME.metrics.txt" "$@" > /dev/null
  sed -n '/^# TYPE .* counter$/{n;p}' "$TEL_DIR/$NAME.metrics.txt" \
    > "$TEL_DIR/$NAME.counters.txt"
}
counters alone
counters traced --trace-out="$TEL_DIR/toy.trace.json"
counters reported --perf-report="$TEL_DIR/toy.perf.json"
counters both --trace-out="$TEL_DIR/toy.trace.json" \
  --perf-report="$TEL_DIR/toy.perf.json"
grep -q '^pimflow_codegen_plans ' "$TEL_DIR/alone.counters.txt"
for NAME in traced reported both; do
  cmp "$TEL_DIR/alone.counters.txt" "$TEL_DIR/$NAME.counters.txt"
done
# Two dead channels remap every PIM kernel onto the 14 survivors; the
# exports describe those plans (lane k is the k-th surviving channel).
./build/tools/pimflow run toy --dir="$TEL_DIR" --faults=dead:3,dead:7 \
  --perf-report="$TEL_DIR/remap.perf.json" \
  --trace-out="$TEL_DIR/remap.trace.json" > /dev/null
./build/tools/pf_json_check "$TEL_DIR/remap.perf.json" > /dev/null
./build/tools/pf_json_check --chrome "$TEL_DIR/remap.trace.json" > /dev/null
if grep -qE '"pim\.ch1[45]"' "$TEL_DIR/remap.perf.json"; then
  echo "error: the remapped run's perf report names a lost channel" >&2
  exit 1
fi

echo "== tier 7: plan artifacts — compile/replay determinism + corruption matrix =="
PLAN_DIR=build/plan-smoke
rm -rf "$PLAN_DIR"
mkdir -p "$PLAN_DIR"
# Compile once, validate the artifact, and prove it and a squeezenet-1.1
# compile match the committed goldens byte for byte.
./build/tools/pimflow compile toy --dir="$PLAN_DIR" \
  --plan-out="$PLAN_DIR/toy.plan" > /dev/null
./build/tools/pf_plan_check "$PLAN_DIR/toy.plan" > /dev/null
cmp "$PLAN_DIR/toy.plan" tools/testdata/toy.plan
./build/tools/pimflow compile squeezenet-1.1 --dir="$PLAN_DIR" \
  --plan-out="$PLAN_DIR/squeezenet-1.1.plan" > /dev/null
cmp "$PLAN_DIR/squeezenet-1.1.plan" tools/testdata/squeezenet-1.1.plan
# The emitted PIM command streams match their goldens byte for byte.
./build/tools/pimflow trace toy --dir="$PLAN_DIR" > /dev/null
for KERNEL in conv2d_1 conv2d_4 conv2d_9.pim gemm_15; do
  cmp "$PLAN_DIR/toy.$KERNEL.trace" "tools/testdata/toy.$KERNEL.trace"
done
# Replay determinism: the replayed run's execution line is byte-identical
# to a fresh compile-and-run of the same model.
./build/tools/pimflow run toy --dir="$PLAN_DIR" \
  | grep 'us end-to-end' > "$PLAN_DIR/fresh.out"
./build/tools/pimflow run toy \
  --plan="$PLAN_DIR/toy.plan" \
  --metrics-out="$PLAN_DIR/replay.metrics.txt" \
  | grep 'us end-to-end' > "$PLAN_DIR/replay.out"
cmp "$PLAN_DIR/fresh.out" "$PLAN_DIR/replay.out"
# The replay really skipped the search: its metrics carry the replay
# counter and not a single search/profiler counter.
grep -q '^pimflow_plan_replays 1' "$PLAN_DIR/replay.metrics.txt"
if grep -qE '^pimflow_(search|profiler)_' "$PLAN_DIR/replay.metrics.txt"; then
  echo "error: replay run bumped search/profiler counters" >&2
  exit 1
fi
# The content-addressed cache: a second compile of the same key hits.
./build/tools/pimflow compile toy --dir="$PLAN_DIR" \
  --plan-cache-dir="$PLAN_DIR/cache" > /dev/null
./build/tools/pimflow compile toy --dir="$PLAN_DIR" \
  --plan-cache-dir="$PLAN_DIR/cache" \
  --metrics-out="$PLAN_DIR/cached.metrics.txt" > /dev/null
grep -q '^pimflow_plan_cache_hit 1' "$PLAN_DIR/cached.metrics.txt"
# Corruption matrix: every damaged artifact is rejected non-zero with the
# right diagnostic slug, never executed and never silently re-searched.
reject() { # <slug> <artifact>
  if ./build/tools/pimflow run toy --plan="$2" \
    > /dev/null 2> "$PLAN_DIR/reject.err"; then
    echo "error: corrupted artifact $2 was accepted" >&2
    exit 1
  fi
  grep -q "$1" "$PLAN_DIR/reject.err" || {
    echo "error: $2 rejected without a $1 diagnostic:" >&2
    cat "$PLAN_DIR/reject.err" >&2
    exit 1
  }
}
head -c 200 "$PLAN_DIR/toy.plan" > "$PLAN_DIR/truncated.plan"
reject 'plan\.corrupt' "$PLAN_DIR/truncated.plan"
sed '2s/./X/' "$PLAN_DIR/toy.plan" > "$PLAN_DIR/flipped.plan"
reject 'plan\.corrupt' "$PLAN_DIR/flipped.plan"
sed '1s/ v2 / v99 /' "$PLAN_DIR/toy.plan" > "$PLAN_DIR/skewed.plan"
reject 'plan\.version' "$PLAN_DIR/skewed.plan"
# An honest artifact whose segments leave a node of the model uncovered.
reject 'plan\.mismatch' tools/testdata/toy.mismatch-uncovered-node.plan
if ./build/tools/pimflow run mnasnet-1.0 \
  --plan="$PLAN_DIR/toy.plan" > /dev/null 2> "$PLAN_DIR/mismatch.err"; then
  echo "error: wrong-model replay was accepted" >&2
  exit 1
fi
grep -q 'plan\.mismatch' "$PLAN_DIR/mismatch.err"

echo "== tier 8: serve — deterministic multi-tenant smoke =="
SERVE_DIR=build/serve-smoke
rm -rf "$SERVE_DIR"
mkdir -p "$SERVE_DIR"
SERVE_SPEC='count:24,seed:7,mean-gap-us:150,batch:1|4'
# The full serve run: golden summary, serve report, metrics.
./build/tools/pimflow serve toy mobilenet-v2 \
  --requests="$SERVE_SPEC" --max-inflight=3 --channel-pool=24 \
  --summary-out="$SERVE_DIR/serve.1.txt" \
  --perf-report="$SERVE_DIR/serve.perf.json" \
  --metrics-out="$SERVE_DIR/serve.metrics.txt" > /dev/null
# Determinism from one process to the next: an identical second run
# reproduces the summary byte for byte.
./build/tools/pimflow serve toy mobilenet-v2 \
  --requests="$SERVE_SPEC" --max-inflight=3 --channel-pool=24 \
  --summary-out="$SERVE_DIR/serve.2.txt" \
  --metrics-out="$SERVE_DIR/serve.2.metrics.txt" > /dev/null
cmp "$SERVE_DIR/serve.1.txt" "$SERVE_DIR/serve.2.txt"
cmp "$SERVE_DIR/serve.1.txt" tools/testdata/serve_summary.golden
# The second run records what the first recorded: the counter families
# match.
serveCounters() { # <metrics file> <counters file>
  sed -n '/^# TYPE .* counter$/{n;p}' "$1" > "$2"
}
serveCounters "$SERVE_DIR/serve.metrics.txt" "$SERVE_DIR/serve.1.counters.txt"
serveCounters "$SERVE_DIR/serve.2.metrics.txt" \
  "$SERVE_DIR/serve.2.counters.txt"
grep -q '^pimflow_engine_executions ' "$SERVE_DIR/serve.1.counters.txt"
cmp "$SERVE_DIR/serve.1.counters.txt" "$SERVE_DIR/serve.2.counters.txt"
# The channel-pressure mix must actually exercise the ladder: full grants,
# degraded grants, and GPU-floor fallbacks all appear in the golden run.
grep -q 'outcome=served'   "$SERVE_DIR/serve.1.txt"
grep -q 'outcome=degraded' "$SERVE_DIR/serve.1.txt"
grep -q 'outcome=floor'    "$SERVE_DIR/serve.1.txt"
# The serve report is valid JSON of the serve kind.
./build/tools/pf_json_check "$SERVE_DIR/serve.perf.json" > /dev/null
grep -q '"kind":"pimflow-serve-report"' "$SERVE_DIR/serve.perf.json"
# And the serve.* families made it into the Prometheus exposition.
./build/tools/pf_metrics_check --min-quantile-metrics=3 \
  "$SERVE_DIR/serve.metrics.txt"
grep -q '^pimflow_serve_requests 24' "$SERVE_DIR/serve.metrics.txt"

echo "== tier 9: chaos-under-serve — deadlines, breakers, fault timelines =="
ctest --test-dir build --output-on-failure -j "$JOBS" \
  -R 'ServeChaos|FaultTimeline|ChannelScoreboard'
CHAOS_DIR=build/serve-chaos-smoke
rm -rf "$CHAOS_DIR"
mkdir -p "$CHAOS_DIR"
CHAOS_SPEC='count:24,seed:7,mean-gap-us:50,batch:1|4,deadline-us:4000'
CHAOS_FAULTS='dead@200..700:0,dead@900..1600:0'
# Mid-stream outages under load: outcomes are still decided entirely in
# virtual time, so an identical second run reproduces the summary.
./build/tools/pimflow serve toy mobilenet-v2 \
  --requests="$CHAOS_SPEC" --max-inflight=3 --max-queue=2 \
  --channel-pool=12 \
  --faults="$CHAOS_FAULTS" --breaker-threshold=1 \
  --breaker-cooldown-us=100 --retry-budget=8 \
  --summary-out="$CHAOS_DIR/chaos.1.txt" \
  --metrics-out="$CHAOS_DIR/chaos.metrics.txt" \
  --perf-report="$CHAOS_DIR/chaos.perf.json" > /dev/null
./build/tools/pimflow serve toy mobilenet-v2 \
  --requests="$CHAOS_SPEC" --max-inflight=3 --max-queue=2 \
  --channel-pool=12 \
  --faults="$CHAOS_FAULTS" --breaker-threshold=1 \
  --breaker-cooldown-us=100 --retry-budget=8 \
  --summary-out="$CHAOS_DIR/chaos.2.txt" > /dev/null
cmp "$CHAOS_DIR/chaos.1.txt" "$CHAOS_DIR/chaos.2.txt"
# The outages actually bit: mid-run interrupts retried onto live channels,
# and the flapping channel tripped its breaker and was later re-admitted.
grep -q 'reason=fault-retry' "$CHAOS_DIR/chaos.1.txt"
grep -qE 'resilience: interrupts=[1-9][0-9]* retries=[1-9]' \
  "$CHAOS_DIR/chaos.1.txt"
grep -qE 'trips=[1-9]' "$CHAOS_DIR/chaos.1.txt"
grep -qE 'readmits=[1-9]' "$CHAOS_DIR/chaos.1.txt"
grep -q 'shed_reasons: ' "$CHAOS_DIR/chaos.1.txt"
grep -q 'floor_reasons: ' "$CHAOS_DIR/chaos.1.txt"
# Breaker counters reach the Prometheus exposition and the serve report.
./build/tools/pf_metrics_check --min-quantile-metrics=3 \
  "$CHAOS_DIR/chaos.metrics.txt"
grep -qE '^pimflow_serve_breaker_trips [1-9]' "$CHAOS_DIR/chaos.metrics.txt"
grep -qE '^pimflow_serve_fault_interrupts [1-9]' \
  "$CHAOS_DIR/chaos.metrics.txt"
./build/tools/pf_json_check "$CHAOS_DIR/chaos.perf.json" > /dev/null
grep -qE '"breaker_trips":[1-9]' "$CHAOS_DIR/chaos.perf.json"
# A tight deadline under burst load: queued expiries shed before they run,
# late completions classify as missed, and on-time ones still count met.
./build/tools/pimflow serve toy mobilenet-v2 \
  --requests='count:32,seed:9,mean-gap-us:2,batch:1|4,deadline-us:30' \
  --max-inflight=2 --max-queue=4 --channel-pool=24 \
  --summary-out="$CHAOS_DIR/deadline.txt" > /dev/null
grep -qE 'shed_reasons: queue_full=[0-9]+ deadline_expired=[1-9]' \
  "$CHAOS_DIR/deadline.txt"
grep -qE 'deadline: met=[1-9][0-9]* missed_run=[1-9][0-9]* expired_queued=[1-9]' \
  "$CHAOS_DIR/deadline.txt"

echo "== tier 10: ASan + UBSan on the serve/runtime resilience, simulator, codegen, engine, number-text, telemetry and graph suites =="
cmake -B build-asan -S . -DPIMFLOW_SANITIZE=address
cmake --build build-asan -j "$JOBS" \
  --target serve_test serve_chaos_test engine_test pim_test codegen_test \
  support_test search_test obs_test ir_test transform_test
ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
  -R 'Server|ServeChaos|Channel|LoadGen|Fault|Session|Scoreboard|PimSimulator|CodegenSweep|CodegenMonotonicity|CommandGenerator|ExecutionEngine|SchedulerProperty|StringUtil|PlanArtifact|PlanCorruption|Json|Registry|Counters|Scope|LogLinearHistogram|PinnedTelemetry|PinnedPlans|GraphTest|GraphIndex|VerifierTest|Serializer|Canonicalize|PatternMatch|Pipeline|MdDp|MemoryPlanner|Parallelism|Attribution|LayerExtract|SamplePricing'
cmake -B build-ubsan -S . -DPIMFLOW_SANITIZE=undefined
cmake --build build-ubsan -j "$JOBS" \
  --target serve_test serve_chaos_test engine_test pim_test codegen_test \
  support_test search_test obs_test ir_test transform_test
ctest --test-dir build-ubsan --output-on-failure -j "$JOBS" \
  -R 'Server|ServeChaos|Channel|LoadGen|Fault|Session|Scoreboard|PimSimulator|CodegenSweep|CodegenMonotonicity|CommandGenerator|ExecutionEngine|SchedulerProperty|StringUtil|PlanArtifact|PlanCorruption|Json|Registry|Counters|Scope|LogLinearHistogram|PinnedTelemetry|PinnedPlans|GraphTest|GraphIndex|VerifierTest|Serializer|Canonicalize|PatternMatch|Pipeline|MdDp|MemoryPlanner|Parallelism|Attribution|LayerExtract|SamplePricing'

echo "== tier 11: request tracing — deterministic tail-sampled serve traces =="
TRACE_DIR=build/trace-smoke
rm -rf "$TRACE_DIR"
mkdir -p "$TRACE_DIR"
TRACE_SPEC='count:200,seed:7,mean-gap-us:20,batch:1|4,deadline-us:800'
TRACE_FAULTS='dead@200..700:0,dead@900..1600:0'
# A 200-request burst with mid-stream outages: the tail policy must keep
# every shed/missed/faulted request plus the slowest completions.
./build/tools/pimflow serve toy mobilenet-v2 \
  --requests="$TRACE_SPEC" --max-inflight=3 --max-queue=2 \
  --channel-pool=12 \
  --faults="$TRACE_FAULTS" --breaker-threshold=1 \
  --breaker-cooldown-us=100 --retry-budget=8 \
  --trace-sample=tail --trace-out="$TRACE_DIR/trace.1.json" \
  --perf-report="$TRACE_DIR/trace.perf.json" \
  --summary-out="$TRACE_DIR/trace.summary.txt" > /dev/null
# The trace is built from virtual-time records alone, so an identical
# second run reproduces it byte for byte.
./build/tools/pimflow serve toy mobilenet-v2 \
  --requests="$TRACE_SPEC" --max-inflight=3 --max-queue=2 \
  --channel-pool=12 \
  --faults="$TRACE_FAULTS" --breaker-threshold=1 \
  --breaker-cooldown-us=100 --retry-budget=8 \
  --trace-sample=tail --trace-out="$TRACE_DIR/trace.2.json" > /dev/null
cmp "$TRACE_DIR/trace.1.json" "$TRACE_DIR/trace.2.json"
# Structural validity: Chrome field rules, balanced span nesting, resolved
# flow ids, exactly one root span per request lane.
./build/tools/pf_json_check --chrome "$TRACE_DIR/trace.1.json" > /dev/null
./build/tools/pf_trace_check --min-requests=100 "$TRACE_DIR/trace.1.json"
# The tail classes are all present in the sampled trace: shed instants,
# deadline-missed roots, fault interrupts, and breaker lifecycle events.
grep -q '"cat":"serve.shed"'    "$TRACE_DIR/trace.1.json"
grep -q '"deadline":"missed"'   "$TRACE_DIR/trace.1.json"
grep -q '"cat":"serve.fault"'   "$TRACE_DIR/trace.1.json"
grep -q '"cat":"serve.breaker"' "$TRACE_DIR/trace.1.json"
grep -q '"cat":"serve.flow"'    "$TRACE_DIR/trace.1.json"
# Drill into one deadline-missed request: the report renderer must break
# its latency into queue-wait + exec segments with the exec-phase split.
MISSED_ID=$(grep -o '{"id":[0-9]*,[^{]*"deadline":"missed"' \
  "$TRACE_DIR/trace.perf.json" | head -1 | sed 's/{"id":\([0-9]*\),.*/\1/')
if [ -z "$MISSED_ID" ]; then
  echo "error: no deadline-missed request in the trace report" >&2
  exit 1
fi
./build/tools/pimflow report --request="$MISSED_ID" \
  "$TRACE_DIR/trace.perf.json" > "$TRACE_DIR/request.txt"
grep -q 'queue-wait'       "$TRACE_DIR/request.txt"
grep -q 'deadline missed'  "$TRACE_DIR/request.txt"
grep -q 'exec-phase'       "$TRACE_DIR/request.txt"
# The tracing suites race-free under TSan (tree built in tier 3).
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -R 'RequestTrace|TraceCheck'

echo "== tier 12: Release build + full test suite =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j "$JOBS"
ctest --test-dir build-release --output-on-failure -j "$JOBS"

echo "== ci.sh: all passes green =="
