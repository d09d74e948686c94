"""Benchmark of pncalc: one workload, in one process and one thread.

    python3 bench/run.py --workload {readme_cli,exact_steps,lazy_smooth}
                         --seed N --seconds S --trace {0,1}

The library is imported from ``src/`` of the checkout this file sits in.

Untraced (``--trace 0``): the workload's operations run in interleaved
rounds, each round in an order drawn from the seed, until the next round
would end after ``--seconds``; at least one round runs.  Every output is
checked.  Reported: ``setup_s`` (median of the fresh processes, each
importing pncalc and building the inputs, that every round starts
``SETUP_PER_ROUND`` times in among its operations; each is scaled by the
start of a fresh interpreter importing numpy, run right before it),
``wall_s`` (the time of one round of the fixed work: each operation's
median latency times its runs per round, summed), ``op_p50_geomean_ms``
(geometric mean of the medians) and ``peak_rss_mb``.  Latencies are scaled by the time of a
fixed reference work run in the same round (``reference_work``), which
cancels the drift of a shared host's speed.

Traced (``--trace 1``): one untraced round of the workload, then the
tracing wrappers go in and one round of every workload runs under them,
the named one first.  Reported: every per-layer figure over that sweep,
and ``trace.overhead_s``, the named workload's traced round time minus
its untraced round time, both scaled by their round's reference work.

The last line of stdout is the JSON result; ``attempted`` and ``failed``
count the named workload's operations.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: fresh processes timed for setup_s in each round, interleaved like an operation
SETUP_PER_ROUND = 3
SETUP_TIMEOUT_S = 60
#: a fresh interpreter that imports numpy and nothing of pncalc, started
#: right before each set-up probe, and the time its start is scaled to
SETUP_REFERENCE = "import numpy; print('ready', flush=True)"
SETUP_REFERENCE_S = 0.25

#: runs of the reference work per round, and the time it is scaled to
REFERENCE_RUNS = 16
REFERENCE_S = 0.006

_REF_SORTED = [i * 0.25 for i in range(4096)]


def reference_work() -> float:
    """Fixed work that does not touch pncalc: a loop of small tuples, dict
    updates and bisections, then numpy passes over a 1.6 MB array -- the
    same kinds of work as the library's.  Its median time in a round
    measures how fast the host is during that round."""
    import numpy as np

    acc = 0.0
    best: dict = {}
    for i in range(4000):
        t = (i * 0.5, i + 1.0, i % 7)
        best[t[2]] = max(best.get(t[2], 0.0), t[0] / t[1])
        acc += bisect.bisect_left(_REF_SORTED, t[0])
    xs = np.linspace(0.0, 1.0, 200_000)
    acc += float(np.searchsorted(xs, xs[::-41]).sum())
    acc += float(np.minimum(xs, xs[::-1]).max())
    return acc + sum(best.values())


def _import_library():
    if not os.path.isfile(os.path.join(SRC, "pncalc", "__init__.py")):
        sys.exit(f"bench: no pncalc sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import pncalc

    if os.path.dirname(os.path.dirname(os.path.abspath(pncalc.__file__))) != SRC:
        sys.exit(f"bench: imported pncalc from {pncalc.__file__}, not from {SRC}")


def run_rounds(ops, seed: int, seconds: float, rounds: int | None = None, tracer=None, setup=None) -> dict:
    """Run whole rounds of ``ops``, each operation ``op.repeat`` times per
    round in a shuffled order together with the reference work and, when
    ``setup`` is given, ``SETUP_PER_ROUND`` calls of it; returns
    per-operation (latency in s, round) samples, the reference times of
    each round, the values ``setup`` returned, counts and the reasons
    of unexpected failures."""
    import numpy as np

    lat = {op.name: [] for op in ops}
    reference: list[list[float]] = []
    setup_s: list = []
    # slot len(ops) is the reference work and slot len(ops) + 1 a set-up
    # probe, interleaved like operations
    slots = np.repeat(np.arange(len(ops) + 2),
                      [op.repeat for op in ops] + [REFERENCE_RUNS, SETUP_PER_ROUND if setup else 0])
    attempted = failed = 0
    problems: list[str] = []
    round_s: list[float] = []
    start = perf_counter()
    r = 0
    while True:
        gc.collect()
        order = np.random.default_rng([seed, r]).permutation(slots)
        busy = 0.0
        reference.append([])
        for k in order:
            if k == len(ops):
                t0 = perf_counter()
                reference_work()
                reference[r].append(perf_counter() - t0)
                continue
            if k == len(ops) + 1:
                setup_s.append(setup())
                continue
            op = ops[int(k)]
            if tracer is not None:
                tracer.recording = True
            t0 = perf_counter()
            try:
                out = op.run()
                why = None
            except Exception as exc:  # a failing operation is counted, not fatal
                out, why = None, f"raised {type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.recording = False
            if why is None:
                try:
                    why = op.check(out)
                except Exception as exc:
                    why = f"check raised {type(exc).__name__}: {exc}"
            lat[op.name].append((dt, r))
            busy += dt
            attempted += 1
            if why is not None:
                failed += 1
                if why != op.known_failure:
                    problems.append(f"{op.name}: {why}")
        round_s.append(busy)
        r += 1
        elapsed = perf_counter() - start
        if rounds is not None:
            if r >= rounds:
                break
        elif elapsed * (r + 1) / r > seconds:
            break
    return {"lat": lat, "attempted": attempted, "failed": failed, "problems": problems, "round_s": round_s,
            "reference": reference, "setup": setup_s}


def _time_to_ready(argv: list[str]) -> float:
    """Time from starting ``argv`` to its first line, which must read
    ``ready``; the child is then waited for."""
    t0 = perf_counter()
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        line = child.stdout.readline().strip()
        dt = perf_counter() - t0
        child.stdout.read()
        child.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    if line != "ready" or child.returncode != 0:
        sys.exit(f"bench: set-up probe failed (exit {child.returncode}, said {line!r})")
    return dt


def _setup_probe(workload: str, seed: int) -> tuple[float, float, float]:
    """Time from starting a fresh interpreter to having the workload's
    inputs built, scaled by SETUP_REFERENCE_S over the time of the
    reference start run right before it."""
    ref = _time_to_ready([sys.executable, "-c", SETUP_REFERENCE])
    dt = _time_to_ready([sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
                         "--setup-probe"])
    return dt * SETUP_REFERENCE_S / ref, dt, ref


def _print_ops(title: str, lat: dict) -> None:
    print(f"# {title}: operation, median ms as measured, samples")
    for name, v in lat.items():
        print(f"#   {name:40s} {statistics.median(dt for dt, _ in v) * 1e3:12.3f} {len(v):4d}")


def _scales(res: dict) -> list[float]:
    """Per round, REFERENCE_S over the median time of the reference work."""
    return [REFERENCE_S / statistics.median(v) for v in res["reference"]]


def untraced(workload: str, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    import workloads

    ops = workloads.build(workload, seed)
    res = run_rounds(ops, seed, seconds, setup=functools.partial(_setup_probe, workload, seed))
    # Each sample is scaled by REFERENCE_S over the median time of the
    # reference work in its round: when the shared host runs slower, the
    # reference work slows down alike, and the scaled time stays.
    scale = _scales(res)
    med = {name: statistics.median(dt * scale[r] for dt, r in v) for name, v in res["lat"].items()}
    # Set-up is scaled by its own reference, a fresh interpreter importing
    # numpy: process start and import drift on the host apart from
    # reference_work, and that reference start drifts with them.
    setup_s = statistics.median(scaled for scaled, _, _ in res["setup"])
    wall_s = sum(op.repeat * med[op.name] for op in ops)
    geomean_ms = math.exp(statistics.fmean(math.log(max(v, 1e-9) * 1e3) for v in med.values()))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _print_ops(f"{workload}, seed {seed}, {len(res['round_s'])} rounds", res["lat"])
    print("# reference work per round, ms: " + " ".join(f"{statistics.median(v) * 1e3:.3f}" for v in res["reference"]))
    print("# set-up probes as measured, s: " + " ".join(f"{dt:.3f}" for _, dt, _ in res["setup"]))
    print("# set-up reference starts, s: " + " ".join(f"{ref:.3f}" for _, _, ref in res["setup"]))
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "op_p50_geomean_ms": (geomean_ms, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return metrics, res["attempted"], res["failed"], res["problems"]


def traced(workload: str, seed: int) -> tuple[dict, int, int, list[str]]:
    import tracing
    import workloads

    built = {w: workloads.build(w, seed) for w in workloads.WORKLOADS}
    plain = run_rounds(built[workload], seed, 0.0, rounds=1)
    tracer = tracing.Tracer().install()
    try:
        sweep = {}
        for w in (workload,) + tuple(x for x in workloads.WORKLOADS if x != workload):
            sweep[w] = run_rounds(built[w], seed, 0.0, rounds=1, tracer=tracer)
    finally:
        tracer.uninstall()
    for w, res in sweep.items():
        _print_ops(f"{w}, traced", res["lat"])
    metrics = tracer.metrics()
    # both round times scaled by their round's reference work, as in untraced runs
    (traced_s,), (plain_s,) = (
        [t * k for t, k in zip(res["round_s"], _scales(res))] for res in (sweep[workload], plain)
    )
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    own = (plain, sweep[workload])
    problems = [p for res in (plain, *sweep.values()) for p in res["problems"]]
    return metrics, sum(r["attempted"] for r in own), sum(r["failed"] for r in own), problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        workloads.build(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    if args.trace:
        metrics, attempted, failed, problems = traced(args.workload, args.seed)
    else:
        metrics, attempted, failed, problems = untraced(args.workload, args.seed, args.seconds)
    for p in problems:
        print(f"bench: wrong output: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
