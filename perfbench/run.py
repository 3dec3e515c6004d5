#!/usr/bin/env python3
"""End-to-end benchmark of the PIMFlow reproduction: compile, replay, serve.

Run from the repository root:

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 10 --trace 0

It builds perfbench/ (the library sources plus the pfbench driver) with
CMake into $CARGO_TARGET_DIR (default .bench_build), runs one workload, and
prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics. --trace 1 runs the workload
untraced and then traced, validates the traced run's span file with
pf_json_check --chrome, and reports the per-layer metrics together with
obs.traced_wall_ratio (the tracing overhead). Workloads and metrics are
defined in BENCHMARK.json and pfbench.cpp.

Two maintenance modes:

    python3 perfbench/run.py --check-determinism
        Two runs with one seed must repeat the operation sequence and every
        sim_* value; another seed must change the draw but no sim_* value.
    python3 perfbench/run.py --stability
                             [--record perfbench/trajectory.json --label TEXT]
        Runs each workload once for each of the seeds 1..10 and prints every
        end-to-end metric's median and quartile spread against its bound,
        and for the host-time metrics also the spread without the host-speed
        correction; --record appends the medians to the trajectory file.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["compile-cold", "replay", "serve-mixed"]
# Fresh-process passes per run. The host-speed correction tracks the
# host's drift least well on compile-cold's passes and best on serve-mixed's
# (per-chunk samples), so compile-cold takes the most passes; replay times
# the least work per pass (about a second) and takes as many.
PASSES = {"compile-cold": 6, "replay": 6, "serve-mixed": 3}
BUILD_TIMEOUT_S = 850
STABILITY_SEEDS = range(1, 11)
# The host-time metrics, and the power of the host-speed factor (nominal /
# measured seconds) that undoes the correction: rates were divided by it,
# times multiplied.
HOST_TIMES = {"ops_per_s": 1, "op_ms_p50": -1, "op_ms_tail": -1}


class BenchError(Exception):
    pass


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(base, "perfbench"))


def build():
    """Configures and builds; returns the pfbench and pf_json_check paths."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                env=env, timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build step {cmd[:2]} failed: {e}")
        if rc != 0:
            raise BenchError(f"build step {' '.join(cmd)} exited {rc}")
    return os.path.join(out, "pfbench"), os.path.join(out, "pf_json_check")


def run_timeout(seconds):
    """Seconds one pfbench process may take: its timed phase is about
    --seconds long, and set-up and checks take at most a few times more."""
    return 60 + 3 * seconds


def run_pfbench(exe, workload, seed, seconds, trace, tag):
    """Runs pfbench in a fresh work directory; returns its result object."""
    work = os.path.join(build_dir(), "work", f"{workload}-{tag}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result = os.path.join(work, "result.json")
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work,
           "--testdata", os.path.abspath(os.path.join("tools", "testdata")),
           "--result", result]
    if trace:
        cmd += ["--spans", os.path.join(work, "spans.json")]
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=run_timeout(seconds)).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"pfbench {workload} failed: {e}")
    if rc != 0:
        raise BenchError(f"pfbench {workload} exited {rc}")
    try:
        with open(result) as f:
            r = json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"unreadable result {result}: {e}")
    for name, m in r["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            raise BenchError(f"metric {name} has no numeric value")
    r["spans"] = os.path.join(work, "spans.json")
    return r


def combine(passes):
    """One run from its passes: host metrics are their mean; values every
    pass agrees on (the exact sim_* figures) must agree, or the run is
    incorrect."""
    first = passes[0]
    agree = all(p["op_sequence"] == first["op_sequence"] for p in passes)
    metrics = {}
    for name, m in first["metrics"].items():
        values = [p["metrics"][name]["value"] for p in passes]
        same = all(v == values[0] for v in values)
        if name.startswith("sim_"):
            agree = agree and same
        metrics[name] = {"value": values[0] if same else
                         statistics.fmean(values), "unit": m["unit"]}
    return {"correct": agree and all(p["correct"] for p in passes),
            "attempted": sum(p["attempted"] for p in passes),
            "failed": sum(p["failed"] for p in passes),
            "metrics": metrics}


def uncorrected(passes):
    """The host-time metrics without the host-speed correction: each pass's
    value as measured, and their mean."""
    out = {}
    for name, power in HOST_TIMES.items():
        out[name] = statistics.fmean(
            p["metrics"][name]["value"]
            * (p["timed_s"] / p["measured_timed_s"]) ** power
            for p in passes)
    return out


def untraced_passes(exe, workload, seed, seconds):
    # Fresh-process passes over the same inputs: each pays cold process
    # state, as a CLI user does, and their mean spans more of the host's
    # fast and slow periods than one pass.
    return [run_pfbench(exe, workload, seed, seconds, 0, f"pass{i}")
            for i in range(PASSES[workload])]


def measure(exe, check, workload, seed, seconds, trace):
    """One benchmark run, as the contract's last output line."""
    if not trace:
        return combine(untraced_passes(exe, workload, seed, seconds))
    plain = run_pfbench(exe, workload, seed, seconds, 0, "plain")
    traced = run_pfbench(exe, workload, seed, seconds, 1, "traced")
    spans_ok = subprocess.run([check, "--chrome", traced["spans"]],
                              stdout=sys.stderr, stderr=sys.stderr,
                              timeout=run_timeout(seconds)).returncode == 0
    if plain["timed_s"] <= 0:
        raise BenchError("the untraced run timed nothing")
    metrics = dict(traced["metrics"])
    metrics["obs.traced_wall_ratio"] = {
        "value": traced["timed_s"] / plain["timed_s"], "unit": "x"}
    return {"correct": plain["correct"] and traced["correct"] and spans_ok,
            "attempted": traced["attempted"], "failed": traced["failed"],
            "metrics": metrics}


def check_determinism(exe, seconds):
    def sims(r):
        return {k: v["value"] for k, v in r["metrics"].items()
                if k.startswith("sim_")}

    ok = True
    first = run_pfbench(exe, "compile-cold", 11, seconds, 0, "det-a")
    again = run_pfbench(exe, "compile-cold", 11, seconds, 0, "det-b")
    other = run_pfbench(exe, "compile-cold", 12, seconds, 0, "det-c")
    serve = [run_pfbench(exe, "serve-mixed", 11, seconds, 0, f"det-{t}")
             for t in ("d", "e")]
    checks = [
        ("same seed, same operation sequence",
         first["op_sequence"] == again["op_sequence"]),
        ("same seed, same sim_*", sims(first) == sims(again)),
        ("other seed, other draw",
         first["op_sequence"] != other["op_sequence"]),
        ("other seed, same sim_*", sims(first) == sims(other)),
        ("serve: same seed, same stream and sim_*",
         serve[0]["op_sequence"] == serve[1]["op_sequence"]
         and sims(serve[0]) == sims(serve[1])),
    ]
    for what, passed in checks:
        print(f"{'ok  ' if passed else 'FAIL'} {what}", file=sys.stderr)
        ok = ok and passed
    return ok


def spread_of(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def stability(exe, seconds, record, label):
    with open("BENCHMARK.json") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    point = {"label": label, "seconds": seconds,
             "seeds": f"{STABILITY_SEEDS[0]}..{STABILITY_SEEDS[-1]}",
             "host_cpus": os.cpu_count(), "workloads": {}}
    steady = True
    for w in WORKLOADS:
        values, raw = {}, {}
        for seed in STABILITY_SEEDS:
            passes = untraced_passes(exe, w, seed, seconds)
            r = combine(passes)
            if not r["correct"] or r["failed"]:
                raise BenchError(f"{w} seed {seed}: a check failed")
            for k, m in r["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            for k, v in uncorrected(passes).items():
                raw.setdefault(k, []).append(v)
        rows = {}
        print(f"{w}:", file=sys.stderr)
        for k, vs in values.items():
            med, q1, q3, spread = spread_of(vs)
            limit = bounds[k] / 3
            flag = "" if k == "setup_s" or spread <= limit else "  UNSTEADY"
            steady = steady and not flag
            rows[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            note = ""
            if k in raw:
                rmed, _, _, rspread = spread_of(raw[k])
                rows[k]["uncorrected_median"] = rmed
                rows[k]["uncorrected_spread"] = rspread
                note = f"  uncorrected {rmed:10.6g} spread {rspread:.4f}"
            print(f"  {k:28s} median {med:12.6g}  spread {spread:7.4f}"
                  f"  (bound/3 {limit:.4f}){flag}{note}", file=sys.stderr)
        point["workloads"][w] = rows
    if record:
        history = []
        if os.path.exists(record):
            with open(record) as f:
                history = json.load(f)
        history.append(point)
        with open(record, "w") as f:
            json.dump(history, f, indent=2)
            f.write("\n")
    return steady


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--check-determinism", action="store_true")
    p.add_argument("--stability", action="store_true")
    p.add_argument("--record")
    p.add_argument("--label", default="unlabelled")
    args = p.parse_args()
    if not (args.workload or args.check_determinism or args.stability):
        p.error("give --workload, --check-determinism or --stability")
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        p.error("--seed must be >= 0 and --seconds in [1, 3600]")
    try:
        exe, check = build()
        if args.check_determinism:
            sys.exit(0 if check_determinism(exe, min(args.seconds, 3)) else 1)
        if args.stability:
            sys.exit(0 if stability(exe, args.seconds, args.record,
                                    args.label) else 1)
        out = measure(exe, check, args.workload, args.seed, args.seconds,
                      args.trace)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(1)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
