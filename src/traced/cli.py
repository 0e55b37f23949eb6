"""Command-line verification harness.

    traced check [--suite ID|all] [--seed N] [--trials N] [--q R]
                 [--format text|json] [--replay FILE] [--list]
    traced eval FILE.diag
    traced demo partition --matrix FILE --length N

Exit codes: `check` is nonzero iff any suite fails; `eval` exits 1 iff an
assertion fails; `check --replay` is nonzero iff some stored counterexample
no longer reproduces; `demo partition` exits 1 iff the partition identity
fails.  Exit code 2 means unusable input (an unknown suite, a `--q` that is
not `p` or `p/q` or that the graded instance rejects, a `--trials` below 1,
a non-integer TRACED_SEED, a missing or malformed replay file, a rejected
.diag program, a missing or malformed `--matrix` file, a `--length` below
1, a replay file, .diag program or `--matrix` file that is not UTF-8, or one
nested too deeply to read), reported in one line on stderr.  TRACED_SEED
overrides the default seed.  The report echoes `--q` in lowest terms ("6/4"
as "3/2").
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources

from .errors import TracedError
from .graded import GradedVect
from .suites import REGISTRY, SuiteConfig, run_suite, run_trial, select_suites
from ._rat import parse_rat, rat_str


def _schema():
    return json.loads(resources.files("traced").joinpath("report_schema.json").read_text())


def _validate_report(doc: dict):
    import jsonschema

    jsonschema.validate(doc, _schema())


# What JSON data of the wrong shape raises when read as replay entries.
_BAD_DATA = (TracedError, KeyError, TypeError, ValueError, AttributeError, IndexError,
             ZeroDivisionError, RecursionError)


def _replay_entries(path: str) -> list:
    """(suite id, serialized inputs) of every counterexample stored in a
    report file, or of the one entry in a {"suite", "inputs"} file, such as
    the pinned counterexamples shipped in the package data."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("replay file must hold a JSON object")
    if "suites" in doc:
        entries = [(s["id"], s["counterexample"]["inputs"])
                   for s in doc["suites"] if s.get("counterexample")]
    elif "suite" in doc:
        entries = [(doc["suite"], doc["inputs"])]
    else:
        raise ValueError("replay file has neither a report nor a single counterexample")
    if not all(isinstance(inputs, dict) for _sid, inputs in entries):
        raise ValueError("stored inputs must be a JSON object")  # an int is a trial index
    return entries


def cmd_check(args) -> int:
    if args.list:
        for sid, suite in sorted(REGISTRY.items()):
            marker = " [expects counterexample]" if suite.expect_counterexample else ""
            print(f"{sid:34s} tag={suite.tag:15s} {suite.description}{marker}")
        return 0

    if args.replay:
        try:
            results = [(sid, *run_trial(REGISTRY[sid], None, inputs)[1])
                       for sid, inputs in _replay_entries(args.replay)]
        except (OSError, *_BAD_DATA) as exc:
            print(f"cannot replay {args.replay}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        if not results:
            print("nothing to replay: no stored counterexamples in the file")
            return 0
        for sid, holds, detail in results:
            status = "NOT reproduced" if holds else "reproduced"
            print(f"{sid}: {status}" + (f" ({detail})" if detail and not holds else ""))
        return 1 if any(holds for _sid, holds, _detail in results) else 0

    try:
        q = parse_rat(args.q)
        GradedVect(q)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"invalid --q {args.q!r}: {exc}", file=sys.stderr)
        return 2
    if args.trials < 1:
        print(f"invalid --trials {args.trials}: must be at least 1", file=sys.stderr)
        return 2

    seed = args.seed
    if seed is None:
        env_seed = os.environ.get("TRACED_SEED", "42")
        try:
            seed = int(env_seed)
        except ValueError:
            print(f"invalid TRACED_SEED {env_seed!r}: not an integer", file=sys.stderr)
            return 2
    cfg = SuiteConfig(
        suites=tuple(args.suite or ("all",)),
        seed=seed,
        trials=args.trials,
        q=rat_str(q),  # "6/4", " 3/2" and "+3/2" all report as "3/2"
    )
    try:
        select_suites(cfg)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    report = run_suite(cfg)

    if args.format == "json":
        doc = report.as_json()
        _validate_report(doc)
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        for r in report.results:
            status = "PASS" if r.passed else "FAIL"
            extra = ""
            if r.expect_counterexample:
                extra = f" counterexamples={r.counterexamples_found} (expected >=1)"
            elif r.failures:
                extra = f" first failure: {r.counterexample['detail']}"
            print(
                f"{status} {r.suite_id:34s} tag={r.tag:15s} trials={r.trials}"
                f" failures={r.failures} {r.wall_time_s * 1000:7.1f}ms{extra}"
            )
        total = sum(r.wall_time_s for r in report.results)
        verdict = "all suites passed" if report.passed else "SOME SUITES FAILED"
        print(f"{verdict}; {len(report.results)} suites in {total:.1f}s")
    return 0 if report.passed else 1


def cmd_eval(args) -> int:
    from .dsl import run_text
    from .errors import DslError

    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"{args.file}: not UTF-8: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_text(text)
    except DslError as exc:
        print(f"{args.file}:{exc}", file=sys.stderr)
        return 2
    except TracedError as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print(f"{args.file}: program nested too deeply", file=sys.stderr)
        return 2
    from .dsl import AssertResult, PrintResult

    for r in report.results:
        if isinstance(r, PrintResult):
            print(r.text)
        elif isinstance(r, AssertResult):
            if r.ok:
                print(f"line {r.line}: assert ok")
            else:
                print(f"line {r.line}: ASSERT FAILED: {r.left} != {r.right}")
    return 0 if report.ok else 1


def _load_matrix(path: str):
    """The matrix in a JSON file of rows whose entries are integers or
    "p/q" strings."""
    from .matrices import RatMatrix

    with open(path, encoding="utf-8") as fh:
        rows = json.load(fh)
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("the matrix must be a JSON list of rows")
    return RatMatrix.from_rows([[parse_rat(str(v)) for v in row] for row in rows])


def cmd_demo_partition(args) -> int:
    from .core import get_instance
    from .field_theory import field_theory

    n = args.length
    if n <= 0:
        print("length must be a positive integer", file=sys.stderr)
        return 2
    try:
        e = field_theory(_load_matrix(args.matrix))
    except (OSError, ValueError, ZeroDivisionError, TracedError, RecursionError) as exc:
        print(f"cannot use --matrix {args.matrix}: {exc}", file=sys.stderr)
        return 2
    rb = get_instance("rbord1")
    cut = n // 2
    if cut == 0:
        s1 = rb.interval("x", "y", n)
        s2 = rb.iso_mor(rb.points(["y"]), rb.points(["x"]), {"y": "x"})
        print("length 1 cannot be split; pairing against the relabeling isometry")
    else:
        s1 = rb.interval("x", "y", n - cut)
        s2 = rb.interval("y", "x", cut)
    lhs, rhs = e.partition(s1, s2)
    print(f"closed circle of total length {n}")
    print(f"  evaluation of the glued bordism : {rat_str(lhs)}")
    print(f"  trace pairing of the two pieces : {rat_str(rhs)}")
    if lhs != rhs:
        print("MISMATCH: the partition identity failed", file=sys.stderr)
        return 1
    print("  identity holds exactly")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="traced",
        description="exact verification harness for categorical traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run property suites")
    check.add_argument("--suite", action="append",
                       help="suite id or prefix (repeatable); default all")
    check.add_argument("--seed", type=int, default=None,
                       help="PRNG seed (default 42, or TRACED_SEED)")
    check.add_argument("--trials", type=int, default=200)
    check.add_argument("--q", default="2", help="braiding parameter of the graded instance")
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.add_argument("--replay", metavar="FILE",
                       help="re-run stored counterexamples from a report or pinned file")
    check.add_argument("--list", action="store_true", help="list available suites")
    check.set_defaults(func=cmd_check)

    ev = sub.add_parser("eval", help="run a .diag program")
    ev.add_argument("file")
    ev.set_defaults(func=cmd_eval)

    demo = sub.add_parser("demo", help="demonstrations")
    demo_sub = demo.add_subparsers(dest="demo_command", required=True)
    part = demo_sub.add_parser("partition",
                               help="closed-circle evaluation vs trace pairing")
    part.add_argument("--matrix", required=True, help="JSON file with matrix rows")
    part.add_argument("--length", type=int, required=True)
    part.set_defaults(func=cmd_demo_partition)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
