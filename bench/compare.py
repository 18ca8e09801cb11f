#!/usr/bin/env python3
"""Compare a parent checkout with a change by the benchmark's own rule.

    python3 bench/compare.py --parent ../parent --change . --workload sweep

Runs ``bench/run.py`` of each checkout ``PAIRS`` times on the same seeds
(``FIRST_SEED`` on), alternating which side runs first, and appends every
run record (Python version, commit, nproc, seed, source line count,
result) to ``--records``.
Each end-to-end metric of BENCHMARK.json then gets one verdict:

* ``unresolved``: the parent's or the change's spread (interquartile range
  over the median) exceeds the metric's bound, and not every change run
  reads better than every parent run;
* ``gain``: the change wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than the parent's
  interquartile range;
* ``regression``: the change's median is worse than the parent's by more
  than the bound;
* ``within bound`` otherwise.

A gain does not count when more ops failed on the change than on the parent.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
PAIRS = 10
FIRST_SEED = 100


def run_once(checkout: Path, workload: str, seed: int, seconds: float, records: Path) -> dict:
    cmd = [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--record", str(records.resolve())]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: run failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, int]:
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    pq1, pmed, pq3 = statistics.quantiles(parent, n=4)
    cq1, cmed, cq3 = statistics.quantiles(change, n=4)
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    spread = max((pq3 - pq1) / pmed, (cq3 - cq1) / cmed) if pmed and cmed else math.inf
    if spread > bound and not all_better:
        return "unresolved", wins
    if wins >= math.ceil(0.9 * len(parent)) and sign * (pmed - cmed) > pq3 - pq1:
        return "gain", wins
    if sign * (cmed - pmed) > bound * pmed:
        return "regression", wins
    return "within bound", wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--records", type=Path, default=BENCH / "out" / "records.jsonl")
    args = parser.parse_args(argv)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    args.records.parent.mkdir(parents=True, exist_ok=True)

    runs = {"parent": [], "change": []}
    for i in range(PAIRS):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in sides:
            checkout = getattr(args, side).resolve()
            runs[side].append(run_once(checkout, args.workload, FIRST_SEED + i,
                                       spec["run_seconds"], args.records))

    failed = {side: sum(r["failed"] for r in results) for side, results in runs.items()}
    print(f"workload {args.workload}: {PAIRS} pairs, failed ops parent "
          f"{failed['parent']}, change {failed['change']}")
    print(f"{'metric':16s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}"
          f" {'wins':>6s}  verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        outcome, wins = verdict(parent, change, metric["better"], metric["bound"])
        if outcome == "gain" and failed["change"] > failed["parent"]:
            outcome = "no gain: more ops failed"
        pq1, pmed, pq3 = statistics.quantiles(parent, n=4)
        cq1, cmed, cq3 = statistics.quantiles(change, n=4)
        print(f"{name:16s} {pmed:12.6g} [{pq1:.6g}, {pq3:.6g}] {cmed:12.6g} [{cq1:.6g}, "
              f"{cq3:.6g}] {wins:3d}/{PAIRS}  {outcome} ({metric['unit']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
