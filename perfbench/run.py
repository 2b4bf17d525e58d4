#!/usr/bin/env python3
"""Builds and runs the read/update cost benchmark.

One run, from the root of the repository:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

builds the `perfbench` package (into $CARGO_TARGET_DIR, by default
`.bench_build`), runs the workload, and prints as the last line of
standard output one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`. A traced run is two
processes of half the time each, one untraced and one traced, so that
`trace.overhead.<metric>` (traced / untraced) can be reported; per-layer
metrics of a layer the workload does not exercise read 0, and a missing
metric of a layer it does exercise is an error. Tables of
every gate and metric go to standard error, span files to
`<target dir>/perfbench-trace/`. The exit code is 0 when every
correctness gate held, 1 when one failed, and 2 when the benchmark
could not be built or run (then no result line is printed).

Steadiness, for one workload:

    python3 perfbench/run.py --workload serve --steady 10 [--sets 2]

runs the workload untraced once per seed (1..k, then k+1..2k for a
second set) and prints, per end-to-end metric, each set's median and
interquartile spread (IQR / median, from `statistics.quantiles(v, n=4)`)
against the metric's bound, and with two sets how far the second median
moved from the first in the worse direction. It exits 1 if a spread or
a move exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One invocation must end within 180 s once the program is built.
DEADLINE_S = 170.0
OVERHEAD = "trace.overhead."
# The layer each workload puts on its critical path; `bench` is the
# benchmark's own round spans, which every workload has.
OWN_LAYER = {"serve": "serve", "objects": "core", "verify": "sim"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target_dir(), "release", "perfbench")


def run_once(binary, workload, seed, seconds, trace, timeout):
    """Runs the program once and returns its result document."""
    cmd = [
        binary, "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace),
        "--trace-dir", os.path.join(target_dir(), "perfbench-trace"),
    ]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish in {timeout:.0f} s")
    if r.returncode not in (0, 1):
        fail(f"{workload} exited with code {r.returncode}")
    try:
        return json.loads(r.stdout)
    except ValueError:
        fail(f"{workload} printed no result document")


def value(metrics, name, unit):
    m = metrics.get(name)
    if m is None:
        fail(f"the program reported no metric {name}")
    if m["unit"] != unit:
        fail(f"{name} is in {m['unit']}, BENCHMARK.json says {unit}")
    return m["value"]


def layer_of(name):
    """`serve.health.served` -> `serve`; `layer.core.self_s` -> `core`."""
    parts = name.split(".")
    return parts[1] if parts[0] == "layer" else parts[0]


def measure(spec, binary, args):
    """One run as the contract asks: (correct, attempted, failed, metrics)."""
    start = time.monotonic()

    def left():
        return DEADLINE_S - (time.monotonic() - start)

    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if args.trace == 0:
        res = run_once(binary, args.workload, args.seed, args.seconds, 0, left())
        metrics = {name: {"value": value(res["e2e"], name, unit), "unit": unit}
                   for name, unit in e2e_units.items()}
        return res["correct"], res["attempted"], res["failed"], metrics
    half = args.seconds / 2
    base = run_once(binary, args.workload, args.seed, half, 0, left())
    traced = run_once(binary, args.workload, args.seed, half, 1, left())
    unknown = sorted(set(traced["layers"]) - {m["name"] for m in spec["per_layer"]})
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {', '.join(unknown)}")
    metrics = {}
    for m in spec["per_layer"]:
        name, unit = m["name"], m["unit"]
        if name.startswith(OVERHEAD):
            e2e = name[len(OVERHEAD):]
            v = (value(traced["e2e"], e2e, e2e_units[e2e])
                 / value(base["e2e"], e2e, e2e_units[e2e]))
        elif layer_of(name) in (OWN_LAYER[args.workload], "bench"):
            v = value(traced["layers"], name, unit)
        else:
            v = 0.0
        metrics[name] = {"value": v, "unit": unit}
    return (base["correct"] and traced["correct"],
            base["attempted"] + traced["attempted"],
            base["failed"] + traced["failed"], metrics)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def steady(spec, binary, args):
    sets = []
    for s in range(args.sets):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.steady):
            seed = s * args.steady + i + 1
            res = run_once(binary, args.workload, seed, args.seconds, 0,
                           args.seconds + DEADLINE_S)
            if not res["correct"]:
                fail(f"{args.workload} seed {seed} failed a correctness gate")
            for m in spec["end_to_end"]:
                values[m["name"]].append(value(res["e2e"], m["name"], m["unit"]))
            print(f"  set {s + 1} seed {seed} done", file=sys.stderr)
        sets.append(values)
    ok = True
    print(f"{args.workload}: {args.steady} runs per set, {args.seconds} s each")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        cells = []
        for values in sets:
            sp = spread(values[name])
            flag = "" if sp <= bound else " !"
            ok = ok and not flag
            cells.append(f"median {statistics.median(values[name]):.6g} spread {sp:.3f}{flag}")
        if len(sets) > 1:
            m1, m2 = (statistics.median(v[name]) for v in sets)
            worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            flag = " !" if worse > bound else ""
            ok = ok and not flag
            cells.append(f"worse by {worse:+.3f}{flag}")
        print(f"  {name:<14} {m['unit']:<6} bound {bound:<5} " + " | ".join(cells))
    return ok


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, metavar="K", help="runs per set (at least 2)")
    p.add_argument("--sets", type=int, default=1, choices=[1, 2])
    args = p.parse_args()
    binary = build()
    if args.steady:
        sys.exit(0 if steady(spec, binary, args) else 1)
    correct, attempted, failed, metrics = measure(spec, binary, args)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
