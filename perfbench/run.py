#!/usr/bin/env python3
"""Benchmark of `traced`: closed-loop passes over one seeded workload.

    python3 perfbench/run.py --workload check-default --seed 42 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from `src/`, so
nothing is installed.  One process, one thread: after set-up is timed in
fresh interpreters and one untimed warm-up pass has finished lazy set-up,
the loop runs one pass after another, each on its own seed derived from the
workload seed, until `--seconds` have elapsed.  Every verdict is checked
against its known answer, and a repeat of the first pass must reproduce
its report digest.

With `--trace 0` the last line of standard output holds the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics of the traced run
(see layers.py).  The line before it gives host facts, load counters, digests
and sample counts.  See NOTES.md for the workloads and how to read the
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
COUNTED_LAYERS = ("matrices", "vect", "thickened", "bordism", "field_theory")
TRACE_SHARE = 0.25  # share of --seconds the traced run spends on its untraced phase


def setup_times(w):
    """Median set-up times over fresh interpreters, after one untimed probe
    that leaves the bytecode cache warm as a user's second run finds it."""
    instances = ("finvect", "supervect", f"graded(q={w.q})", "rbord1")
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *instances]
    samples = []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=60,
                             cwd=ROOT)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    samples = samples[1:]
    return {
        "setup_s": statistics.median(s["import_s"] + s["instances_s"] for s in samples),
        "setup.import_s": statistics.median(s["import_s"] for s in samples),
        "setup.instances_s": statistics.median(s["instances_s"] for s in samples),
    }


def host_facts():
    from traced._rat import rat

    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "rat_backend": f"{rat.__module__}.{rat.__qualname__}",
    }


def timed_passes(w, seed, seconds, corpus, tracer=None, count=None):
    """Closed loop of passes until `seconds` have elapsed (or `count` passes).
    Returns [(PassResult, tracer snapshot or None)], one per pass."""
    from workloads import pass_programs, pass_seed, run_pass

    out = []
    start = time.perf_counter()
    while True:
        s = pass_seed(w.name, seed, len(out))
        programs = pass_programs(w, s, corpus)
        if tracer is None:
            out.append((run_pass(w, s, programs), None))
        else:
            tracer.reset()
            result = run_pass(w, s, programs, tracer.wrap_suite, tracer.wrap_runner)
            out.append((result, tracer.snapshot(w.name)))
        done = len(out) >= count if count is not None else time.perf_counter() - start >= seconds
        if done:
            return out


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(passes, setup):
    results = [r for r, _ in passes]
    verdict_ms = [op.seconds * 1000 for r in results for op in r.ops]
    return {
        "setup_s": (setup["setup_s"], "s"),
        "checks_per_s": (sum(r.checks for r in results) / sum(r.wall_s for r in results), "1/s"),
        "cpu_s": (statistics.median(r.cpu_s for r in results), "s"),
        "verdict_ms_p50": (statistics.median(verdict_ms), "ms"),
        "verdict_ms_p90": (p90(verdict_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(untraced, traced, setup):
    from layers import SPANS
    from workloads import ALL_SUITES, family

    snaps = [snap for _, snap in traced]
    first = snaps[0]
    med = statistics.median
    m = {}
    for name in SPANS:
        if name.split(".")[0] in COUNTED_LAYERS:
            m[f"{name}.calls"] = (first["calls"].get(name, 0), "count")
        m[f"{name}.self_s"] = (med(s["self_s"].get(name, 0.0) for s in snaps), "s")
    m["matrices.max_dim"] = (first["max_dim"], "count")
    m["matrices.max_nnz"] = (first["max_nnz"], "count")
    m["matrices.max_coeff_bits"] = (first["max_coeff_bits"], "bits")
    rep, calls = first["structural"]
    m["structural.repeat_share"] = (rep / calls if calls else 0.0, "ratio")
    whisk, calls = first["tensor"]
    m["tensor.whisker_share"] = (whisk / calls if calls else 0.0, "ratio")
    parse_s = sum(s["total_s"].get("dsl.parse", 0.0) for s in snaps)
    m["dsl.tokens_per_s"] = (sum(s["tokens"] for s in snaps) / parse_s if parse_s else 0.0, "1/s")
    m["gens.gen_s"] = (med(s["total_s"].get("gens.gen", 0.0) for s in snaps), "s")
    m["suites.check_s"] = (med(s["total_s"].get("suites.check", 0.0) for s in snaps), "s")
    m["suites.runner_self_s"] = (med(s["self_s"].get("suites.run_one", 0.0) for s in snaps), "s")
    for fam in dict.fromkeys(family(s) for s in ALL_SUITES):
        per_pass = [sum(op.seconds for op in r.ops if op.family == fam) for r, _ in traced]
        m[f"suites.family.{fam}_s"] = (med(per_pass), "s")
    m["report.json_s"] = (med(r.report_json_s for r, _ in traced), "s")
    m["setup.import_s"] = (setup["setup.import_s"], "s")
    m["setup.instances_s"] = (setup["setup.instances_s"], "s")
    first_result = traced[0][0]
    m["load.trials"] = (sum(op.checks for op in first_result.ops if op.family != "diag"), "count")
    m["load.programs"] = (sum(1 for op in first_result.ops if op.family == "diag"), "count")
    plain = sum(r.wall_s for r, _ in untraced)
    m["trace.overhead_ratio"] = (plain / sum(r.wall_s for r, _ in traced), "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "traced" / "__init__.py").is_file():
        print(f"no traced package under {SRC}; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS, load_corpus, pass_programs, pass_seed, run_pass

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]

    setup = setup_times(w)
    # the same imports as setup_probe.py, before any pass allocates
    import traced.cli  # noqa: F401
    import traced.dsl  # noqa: F401
    import traced.suites  # noqa: F401

    corpus = load_corpus()
    warm = pass_seed(w.name, args.seed, "warmup")
    run_pass(w, warm, pass_programs(w, warm, corpus))

    problems = []
    if args.trace:
        from layers import Tracer

        untraced = timed_passes(w, args.seed, args.seconds * TRACE_SHARE, corpus)
        tracer = Tracer()
        tracer.install()
        try:
            traced_passes = timed_passes(w, args.seed, 0, corpus, tracer, count=len(untraced))
        finally:
            tracer.uninstall()
        for i, ((plain, _), (seen, snap)) in enumerate(zip(untraced, traced_passes)):
            if plain.digest != seen.digest:
                problems.append(f"pass {i}: traced digest differs from untraced")
            if snap["missing"]:
                problems.append(f"pass {i}: no calls recorded for {', '.join(snap['missing'])}")
        passes = traced_passes
        metrics = per_layer(untraced, traced_passes, setup)
    else:
        passes = timed_passes(w, args.seed, args.seconds, corpus)
        s0 = pass_seed(w.name, args.seed, 0)
        repeat = run_pass(w, s0, pass_programs(w, s0, corpus))
        if repeat.digest != passes[0][0].digest:
            problems.append("pass 0 repeated on its seed gave another digest")
        metrics = end_to_end(passes, setup)

    ops = [op for r, _ in passes for op in r.ops]
    failed = sum(1 for op in ops if not op.correct)
    summary = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_facts(),
        "passes": len(passes),
        "verdict_samples": len(ops),
        "checks_per_pass": [r.checks for r, _ in passes],
        "failed_share": failed / len(ops),
        "wrong_verdicts": sorted({op.name for op in ops if not op.correct}),
        "errors": [e for r, _ in passes for e in r.errors][:5],
        "problems": problems,
        "digests": [r.digest for r, _ in passes],
    }
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
