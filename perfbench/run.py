"""Kernel benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload eliminate --seed 1 --seconds 20 --trace 0

Run from the repository root.  Inputs are built by ``inputs.py`` in a
process of their own; each measured pass then runs in a fresh
``worker.py`` process, so every pass starts with the cold spec caches a
``medial`` command starts with.  Passes repeat while another one fits in
``--seconds``; there is always at least one.  Set-up (imports, system P
and its splittable fragment) is timed in every pass and in extra set-up
processes, and reported as a median.  Every time in the result is scaled
to the reference machine speed of ``speed.py``; the lines above it show the
raw times too.

With ``--trace 1`` one timed pass, the baseline of the tracing overhead, is
followed by one traced pass in the same order, and the result carries the
per-layer metrics instead; the call tree and op spans go to
``.perfbench/trace-<workload>-<seed>.json``.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  The lines above it print every metric with its unit, the
counts and the output digest against ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from tracer import COUNTED, KINDS, LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
# Set-up samples per run: a few set-up processes run before the passes
# and the rest after them, so that the median does not rest on one
# stretch of a noisy machine.
SETUP_SAMPLES, SETUP_BEFORE = 9, 3
RUN_TIMEOUT_S = 170
# Tail percentile per workload: the highest one with at least ten ops of
# one pass beyond it, fixed so that more passes do not move the metric.
TAIL = {"eliminate": 90.0, "generate": 99.9, "synthesise": 99.0, "verify": 90.0}
END_TO_END = (  # name, unit
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("out_steps", "steps"),
)
PER_LAYER = tuple(
    [(f"{mod}.{fn}.{kind}", unit) for mod, fns in LAYERS.items() for fn in fns
     for kind, unit in zip(KINDS, ("count", "s", "s"))]
    + [(f"{mod}.{fn}.calls", "count") for mod, fns in COUNTED.items() for fn in fns]
    + [("systems.eq_step_for.none", "ratio"), ("derivations.check.steps", "steps"),
       ("systems.ac_cache.size", "count"), ("systems.eq_cache.size", "count"),
       ("splitting.splits", "count"), ("splitting.bound_violations", "count"),
       ("splitting.irreducible", "count"),
       ("trace.ops_per_s", "op/s"), ("trace.overhead", "ratio")]
)


def _child(args: list, deadline: float, stdin: bytes = b"") -> bytes:
    """Run a benchmark script in a fresh interpreter; return its stdout."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, env=env,
        timeout=max(1.0, deadline - time.monotonic()), check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit(f"{os.path.basename(args[0])} exited with {proc.returncode}")
    return proc.stdout


def _pass(args, deadline: float, payload: bytes, index: int, trace: bool = False) -> dict:
    cmd = [WORKER, "--workload", args.workload, "--order-seed", str(args.seed * 1000 + index)]
    return json.loads(_child(cmd + ["--trace"] * trace, deadline, payload))


def _setup(deadline: float) -> dict:
    return json.loads(_child([WORKER, "--setup-only"], deadline))


def percentile(sorted_values: list, p: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(1, math.ceil(p / 100 * len(sorted_values))) - 1]


def ops_per_s(latencies: list) -> float:
    """Closed loop, one client: ops over the time spent inside ops."""
    return len(latencies) / sum(latencies)


def traced_pass(args, deadline: float, payload: bytes, untraced: float) -> tuple:
    """Per-layer metrics from one traced pass in the order of the timed
    pass, with the tracing overhead against it."""
    report = _pass(args, deadline, payload, 0, trace=True)
    traced = ops_per_s(report["latencies"])
    values = dict(report["layers"])
    counts = report["counts"]
    values.update({
        "systems.ac_cache.size": counts["ac_cache_size"],
        "systems.eq_cache.size": counts["eq_cache_size"],
        "splitting.splits": counts["splits"],
        "splitting.bound_violations": counts["bound_violations"],
        "splitting.irreducible": counts["irreducible"],
        "trace.ops_per_s": traced,
        "trace.overhead": untraced / traced,
    })
    os.makedirs(".perfbench", exist_ok=True)
    path = os.path.join(".perfbench", f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "metrics": values,
                   "call_tree": report["call_tree"],
                   "spans": report["spans"]}, fh)
    busy = sum(report["raw_latencies"])
    print(f"traced pass: {traced:.3f} op/s against {untraced:.3f} untraced "
          f"(overhead x{untraced / traced:.2f}); no function dropped; written to {path}")
    print("  self time by layer function (share of time inside ops):")
    layers = [(k[: -len(".self_s")], v) for k, v in values.items() if k.endswith(".self_s")]
    for name, self_s in sorted(layers, key=lambda kv: -kv[1])[:12]:
        print(f"  {name:36s} {self_s:10.4f} s {100 * self_s / busy:6.1f}%  "
              f"{values[name + '.calls']} calls")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    return metrics, report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(TAIL))
    ap.add_argument("--seed", type=int, default=20240817)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "medial", "__init__.py")):
        sys.stderr.write("run.py: no src/medial here; run it from the repository root\n")
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S

    payload = _child([os.path.join(HERE, "inputs.py"), "--workload", args.workload,
                      "--seed", str(args.seed)], deadline)
    setups = [_setup(deadline) for _ in range(SETUP_BEFORE)]
    passes = []
    started = time.monotonic()
    while True:
        t = time.monotonic()
        passes.append(_pass(args, deadline, payload, len(passes)))
        now = time.monotonic()
        if args.trace or (now - started) + (now - t) > args.seconds:
            break
    setups += passes
    while len(setups) < SETUP_SAMPLES:
        setups.append(_setup(deadline))

    tail_p = TAIL[args.workload]

    def timings(latency_key: str, setup_key: str) -> dict:
        latencies = sorted(x for p in passes for x in p[latency_key])
        return {"ops_per_s": ops_per_s(latencies),
                "op_p50_ms": 1000 * statistics.median(latencies),
                "op_tail_ms": 1000 * percentile(latencies, tail_p),
                "setup_s": statistics.median(s[setup_key] for s in setups)}

    n_ops = sum(len(p["latencies"]) for p in passes)
    raw = timings("raw_latencies", "setup_raw_s")
    e2e = dict(timings("latencies", "setup_s"),
               peak_rss_mb=statistics.median(p["peak_rss_mb"] for p in passes),
               out_steps=passes[0]["counts"]["steps_out"])
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    if args.trace:
        metrics, traced = traced_pass(args, deadline, payload, e2e["ops_per_s"])
        passes.append(traced)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    deterministic = len({(p["digest"], p["counts"]["steps_out"]) for p in passes}) == 1

    with open(os.path.join(HERE, "baseline.json")) as fh:
        baseline = json.load(fh)[args.workload]
    counts = dict(json.loads(payload)["counts"], **passes[0]["counts"])
    print(f"workload {args.workload}  seed {args.seed}  timed passes "
          f"{len(passes) - args.trace}  ops {attempted}")
    print(f"  {'':12s} {'scaled':>14s}      {'raw':>14s}")
    for name, unit in END_TO_END:
        note = f" {raw[name]:14.6f}" if name in raw else f" {'':14s}"
        if name == "op_tail_ms":
            beyond = n_ops - math.ceil(tail_p / 100 * n_ops)
            note += f"  (p{tail_p:g} of {n_ops} ops, {beyond} beyond it)"
        print(f"  {name:12s} {e2e[name]:14.6f} {unit:5s}{note}")
    print(f"  {'fail_rate':12s} {failed / attempted:14.6f} ratio")
    for err in (e for p in passes for e in p["errors"]):
        print(f"  failed {err}")
    for key, value in sorted(counts.items()):
        want = baseline["counts"].get(key, value)
        print(f"  count {key} = {value}" + ("" if want == value else f"  CHANGED from {want}"))
    digest = passes[0]["digest"]
    print(f"  output digest {digest} " + (
        "(matches baseline)" if digest == baseline["digest"] else
        f"(CHANGED from baseline {baseline['digest']}: a change that moves it says why)"))
    if not deterministic:
        print("  passes disagree on their outputs")
    print(json.dumps({"correct": failed == 0 and deterministic, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
