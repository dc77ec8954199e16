#!/usr/bin/env python3
"""Steadiness runner for the MSTM benchmark.

    python3 mstmbench/steady.py [--runs 10] [--seed0 1000] [--workloads a,b] [--trace 0]

Runs every workload `--runs` times, one seed per round (seed0, seed0+1, ...),
alternating the workload order from round to round so that drift of the
machine does not land on one workload. Then prints, per workload and metric,
the median, the quartiles (statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median, and that spread against the metric's bound from
BENCHMARK.json: "steady" below a third of the bound, "ok" within the bound,
"NOISY" above it. Exits non-zero when a run fails or any spread is NOISY.
Each run's result line is kept in .bench_build/mstmbench/steady.jsonl and its
standard error in .bench_build/mstmbench/logs/<workload>-seed<n>.log.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LOG = ROOT / ".bench_build" / "mstmbench" / "steady.jsonl"
STDERR_DIR = ROOT / ".bench_build" / "mstmbench" / "logs"


def run_once(workload, seed, trace):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    t0 = time.monotonic()
    with (STDERR_DIR / f"{workload}-seed{seed}.log").open("w") as err:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, wall, result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    workloads = a.workloads.split(",")
    metrics = SPEC["per_layer" if a.trace else "end_to_end"]
    values = {w: {m["name"]: [] for m in metrics} for w in workloads}
    walls, bad = [], []
    STDERR_DIR.mkdir(parents=True, exist_ok=True)
    with LOG.open("a") as log:
        for r in range(a.runs):
            order = workloads if r % 2 == 0 else workloads[::-1]
            for w in order:
                seed = a.seed0 + r
                code, wall, result = run_once(w, seed, a.trace)
                walls.append(wall)
                log.write(json.dumps({"workload": w, "seed": seed, "trace": a.trace, "exit": code,
                                      "wall_s": wall, "result": result}) + "\n")
                log.flush()
                ok = (code == 0 and result is not None and result["correct"]
                      and all(m["name"] in result["metrics"] for m in metrics))
                print(f"round {r} {w:16s} seed {seed} exit {code} wall {wall:6.1f} s"
                      f" {'ok' if ok else 'FAILED'}", flush=True)
                if not ok:
                    bad.append((w, seed))
                    continue
                for m in metrics:
                    values[w][m["name"]].append(result["metrics"][m["name"]]["value"])

    noisy = []
    print(f"\nruns: {len(walls)}, mean wall {statistics.mean(walls):.1f} s, max {max(walls):.1f} s")
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':34s} {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for m in metrics:
            xs = values[w][m["name"]]
            if len(xs) < 2:
                print(f"  {m['name']:34s} {len(xs):3d} (too few values)")
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "steady" if spread < bound / 3 else "ok" if spread <= bound else "NOISY"
                if verdict == "NOISY":
                    noisy.append((w, m["name"]))
            print(f"  {m['name']:34s} {len(xs):3d} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}"
                  f" {'' if bound is None else bound:>6} {verdict}")
    if bad:
        print(f"\nfailed runs: {bad}")
    if noisy:
        print(f"\nnoisy metrics: {noisy}")
    sys.exit(1 if bad or noisy else 0)


if __name__ == "__main__":
    main()
