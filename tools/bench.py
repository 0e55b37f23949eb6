#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts: a parent against a change.

    python3 tools/bench.py --base ../parent --change . --workload trace-wide

Each of ten pairs runs the benchmark command of BENCHMARK.json
(`perfbench/run.py`) for its `run_seconds` with `--trace 0`, once from the
root of each checkout, so each side runs the benchmark as it ships there.
Both runs of pair k use seed 42 + k, and the side that runs first alternates
from pair to pair.  The environment is passed through unchanged; whether
PYTHONDONTWRITEBYTECODE is set is printed, because set-up times depend on it.

For each workload it prints one markdown row per end-to-end metric of the
base's BENCHMARK.json: the parent's median with its quartiles, the change's,
the difference of the medians, the pairs in which the change did better, and
a bound check.  A metric is `unresolved` where the parent's interquartile
range, as a share of its median, exceeds the metric's bound: a difference
that size cannot be told from the parent's own spread.  A line per workload
gives the runs that read correct and the operations that failed, per side.
Exits 1 if a run fails, 2 on unusable arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
SEED = 42


def quartiles(values):
    """(first quartile, median, third quartile), interpolated between samples."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(pairs, end_to_end):
    """Table rows (metric, base quartiles, change quartiles, difference,
    change wins, bound check) over `pairs` of (base, change) result lines of
    run.py, one row per entry of BENCHMARK.json's `end_to_end`."""
    rows = []
    for spec in end_to_end:
        name, lower, bound = spec["name"], spec["better"] == "lower", spec["bound"]
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        bq, cq = quartiles(base), quartiles(change)
        diff = (cq[1] - bq[1]) / bq[1]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        spread = (bq[2] - bq[0]) / bq[1]
        if spread > bound:
            check = f"unresolved: parent IQR {spread:.0%} is above the bound"
        elif (diff if lower else -diff) > bound:
            check = f"worse than the bound of {bound:.0%}"
        else:
            check = f"ok; parent IQR {spread:.0%}"
        rows.append((name, bq, cq, diff, wins, check))
    return rows


def outcomes(pairs):
    """Per side, the runs that read correct and the operations that failed."""
    parts = []
    for side, runs in (("parent", [b for b, _ in pairs]), ("change", [c for _, c in pairs])):
        correct = sum(1 for r in runs if r["correct"])
        failed = sum(r["failed"] for r in runs)
        parts.append(f"{side} {correct}/{len(runs)} correct, {failed} failed")
    return "; ".join(parts)


def table(workload, pairs, end_to_end):
    def q(v):
        return f"{v[1]:.4g} [{v[0]:.4g}-{v[2]:.4g}]"

    lines = ["| workload | metric | parent median [quartiles] | change median [quartiles]"
             " | diff | change better | bound check |", "|---|---|---|---|---|---|---|"]
    for name, bq, cq, diff, wins, check in summarize(pairs, end_to_end):
        lines.append(f"| {workload} | {name} | {q(bq)} | {q(cq)} | {diff:+.1%} |"
                     f" {wins}/{len(pairs)} | {check} |")
    lines.append(f"{workload}: {outcomes(pairs)}")
    return "\n".join(lines)


def run_side(command, checkout, workload, seed, seconds):
    """The result line of one benchmark run in `checkout`."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=3 * seconds + 300)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(argv)} exited {done.returncode}:"
                           f" {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout of the parent")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append", help="default: every workload")
    args = ap.parse_args(argv)
    for checkout in (args.base, args.change):
        if not (checkout / "BENCHMARK.json").is_file():
            ap.error(f"{checkout}: no BENCHMARK.json; give the root of a checkout")
    spec = json.loads((args.base / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    unknown = sorted(set(workloads) - {w["name"] for w in spec["workloads"]})
    if unknown:
        ap.error(f"unknown workload(s): {', '.join(unknown)}")

    flag = os.environ.get("PYTHONDONTWRITEBYTECODE")
    flag = "unset" if flag is None else f"set to {flag!r}"
    seconds = spec["run_seconds"]
    print(f"PYTHONDONTWRITEBYTECODE is {flag}; {PAIRS} pairs of {seconds:g} s per workload")
    for workload in workloads:
        pairs = []
        for k in range(PAIRS):
            sides, got = (args.base, args.change), [None, None]
            try:
                for i in ((0, 1) if k % 2 == 0 else (1, 0)):
                    got[i] = run_side(spec["command"], sides[i], workload, SEED + k, seconds)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(exc, file=sys.stderr)
                return 1
            pairs.append(tuple(got))
        print(table(workload, pairs, spec["end_to_end"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
