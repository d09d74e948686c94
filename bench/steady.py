"""Steadiness check: do two sets of runs of the same code agree?

    python3 bench/steady.py [--runs 5]

Runs ``bench/run.py --trace 0`` on each workload of BENCHMARK.json, for
its ``run_seconds``, in two sets (A and B) of ``--runs`` runs each,
every run with a seed of its own, alternating which set runs first in
each pair. For every end-to-end metric of BENCHMARK.json it prints each
set's median and quartiles, the spread (Q3 - Q1) / median of each set
and of all runs together, how far set B's median lies from set A's, and
whether the two sets agree: each set's spread and the distance of the
medians stay within the metric's bound, and every run has the same share
of failed operations. Exit code 1 when a workload disagrees. The raw
results go to ``bench/out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=5, help="runs per set and workload (at least 2)")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    raw = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            for side in ("AB" if i % 2 == 0 else "BA"):
                seed = (1000 if side == "A" else 2000) + i
                res = _run(w, seed, seconds)
                raw[w][side].append({"seed": seed, **res})
                print(f"run {i + 1}/{args.runs} {w} set {side} seed {seed}: "
                      + ", ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()), flush=True)

    ok_all = True
    summary = {}
    for w in workloads:
        runs = raw[w]["A"] + raw[w]["B"]
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        ok = correct and len(shares) == 1
        print(f"\n{w}: correct={correct}, failed shares {sorted(shares)}")
        print(f"  {'metric':20s} {'set':3s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s}"
              f"  {'B vs A':>7s} {'pooled':>7s} {'bound':>6s}")
        summary[w] = {}
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sa = _stats([r["metrics"][name]["value"] for r in raw[w]["A"]])
            sb = _stats([r["metrics"][name]["value"] for r in raw[w]["B"]])
            pooled = _stats([r["metrics"][name]["value"] for r in runs])
            shift = (sb["median"] - sa["median"]) / sa["median"]
            agree = max(sa["spread"], sb["spread"]) <= bound and abs(shift) <= bound
            ok = ok and agree
            for label, s in (("A", sa), ("B", sb)):
                tail = (f"  {shift:+7.2%} {pooled['spread']:7.2%} {bound:6.2f}  {'agree' if agree else 'DISAGREE'}"
                        if label == "B" else "")
                print(f"  {name:20s} {label:3s} {s['median']:10.4g} {s['q1']:10.4g} {s['q3']:10.4g}"
                      f" {s['spread']:7.2%}{tail}")
            summary[w][name] = {"A": sa, "B": sb, "pooled": pooled, "shift": shift, "bound": bound, "agree": agree}
        ok_all = ok_all and ok

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seconds": seconds, "runs": args.runs, "summary": summary, "raw": raw}, fh, indent=1)
    print(f"\n{'all workloads agree' if ok_all else 'DISAGREEMENT'}; raw results in {os.path.relpath(path, ROOT)}")
    return 0 if ok_all else 1


if __name__ == "__main__":
    sys.exit(main())
