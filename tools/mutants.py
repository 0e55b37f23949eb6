#!/usr/bin/env python3
"""Kill table of the mutant catalogue over every registered suite.

    python3 tools/mutants.py                     # all mutants, 200 trials, seed 42
    python3 tools/mutants.py --trials 40 tr_hat_braids coev_scaled

Run from the root of a checkout; the package is imported from `src/`.  The
mutants are the `mutant(patch)` functions of `tests/test_mutants.py` (the
keys of its KILLS table).  The script first runs every registered suite
unmutated, then, for each mutant, applies its monkeypatches, runs every
suite again and puts the originals back.  A suite kills a mutant when its
result differs from the unmutated run: a property suite reports failed
trials, or a control suite changes its count of counterexamples.  A suite
whose check raises is listed as a crash, not as a kill.

Prints one markdown row per mutant: the suites that kill it, with their
failed trials (or counterexamples found), and the suites that crashed.  Exits
1 if some mutant is killed by no property suite other than `dsl.corpus`, and
2 on unusable arguments (an unknown mutant, a `--trials` below 1).
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from traced.suites import REGISTRY, SuiteConfig, run_one  # noqa: E402


def load_catalogue():
    """The mutants of tests/test_mutants.py, in catalogue order."""
    path = ROOT / "tests" / "test_mutants.py"
    spec = importlib.util.spec_from_file_location("test_mutants", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {mutant.__name__: mutant for mutant in module.KILLS}


def run_all(cfg):
    """{suite id: (failures, counterexamples found)} or the type name of the
    exception's cause (the exception itself if it has none): a crash that the
    DSL rewraps as DslError is named by what it wraps."""
    out = {}
    for sid, suite in REGISTRY.items():
        try:
            res = run_one(suite, cfg)
        except Exception as exc:  # a crash is recorded, not a kill, by its cause
            out[sid] = type(exc.__cause__ or exc).__name__
        else:
            out[sid] = (res.failures, res.counterexamples_found)
    return out


def mutated_run(mutant, cfg):
    restore = []

    def patch(owner, name, value):
        restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    try:
        mutant(patch)
        return run_all(cfg)
    finally:
        for owner, name, value in reversed(restore):
            setattr(owner, name, value)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("mutants", nargs="*", help="names of mutants to run (default: all)")
    args = ap.parse_args(argv)
    if args.trials < 1:  # with no trials every mutant would survive
        ap.error(f"--trials {args.trials}: must be at least 1")
    catalogue = load_catalogue()
    unknown = [name for name in args.mutants if name not in catalogue]
    if unknown:
        ap.error(f"unknown mutant(s): {', '.join(unknown)}")
    cfg = SuiteConfig(trials=args.trials, seed=args.seed)
    base = run_all(cfg)
    print(f"kill table at {args.trials} trials, seed {args.seed}")
    print("| mutant | killed by (failed trials; controls: counterexamples found) | crashed |")
    print("|---|---|---|")
    survivors = []
    for name in args.mutants or list(catalogue):
        got = mutated_run(catalogue[name], cfg)
        kills, crashes = [], []
        for sid, result in got.items():
            if isinstance(result, str):
                crashes.append(f"`{sid}` {result}")
            elif result != base[sid]:
                count = result[1] if REGISTRY[sid].expect_counterexample else result[0]
                kills.append((sid, count))
        if not any(sid != "dsl.corpus" for sid, _ in kills):
            survivors.append(name)
        killed = ", ".join(f"`{sid}` {count}" for sid, count in kills) or "none"
        print(f"| `{name}` | {killed} | {', '.join(crashes) or 'none'} |")
    if survivors:
        print(f"not killed by a property suite: {', '.join(survivors)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
