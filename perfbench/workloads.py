"""Workload definitions, known answers and one closed-loop pass.

A pass is the unit of work of a workload: every suite of the workload,
each through its own `run_one` call at the workload's caps, plus (for
`bordism-diag`) the shipped corpus and seeded `.diag` programs.  Each suite
or program is one operation with one verdict.  A pass ends, as
`traced check --format json` does, by serialising the suite report and
validating it against the shipped schema; the sha256 of the canonical JSON
of everything the pass decided is its digest.

The suite lists are spelled out rather than derived from the registry, so
a suite added or removed later changes no workload silently: a missing
suite raises and is scored as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from importlib import resources

from diag_gen import generate

MATRIX_KEYS = ("finvect", "supervect", "graded")

# The 62 suites registered at the time the benchmark was defined, in
# registry order.
ALL_SUITES = (
    *(f"{fam}.{key}" for key in (*MATRIX_KEYS, "rbord1")
      for fam in ("core.laws", "core.naturality", "whtr.welldef", "whtr.1", "main2.1",
                  "lem.witness")),
    *(f"{fam}.{key}" for key in ("finvect", "supervect")
      for fam in ("core.symmetry", "vect.injective", "dual.trace")),
    *(f"{fam}.{key}" for key in MATRIX_KEYS
      for fam in ("whtr.pad", "pairing.trace", "whtr.2", "main2.2")),
    *(f"{fam}.{key}" for key in ("supervect", "graded") for fam in ("whtr.3", "main2.3")),
    "vect.rank.finvect", "vect.trace.finvect",
    *(f"dual.bijection.{key}" for key in MATRIX_KEYS),
    "balanced.relations", "balanced.twist", "balanced.crossing",
    "balanced.negative-control", "balanced.twistless-control", "graded.crossing-regression",
    "bord.thick", "bord.cuts", "bord.glue", "sec2.partition", "dsl.corpus",
)

# Known answers, from the theorems and the README rather than from the code
# under test: every suite passes except the negative control, which cannot
# find a counterexample because none exists (q^{-m^2} q^{m^2} = 1), so it is
# red by design.  A red negative control is the correct verdict.
EXPECTED_RED = frozenset({"balanced.negative-control"})

TRIPLE_CALCULUS = tuple(
    s for s in ALL_SUITES
    if s.split(".")[0] in ("whtr", "main2", "lem", "dual") or s.startswith("pairing.trace.")
)
BORDISM = tuple(
    s for s in ALL_SUITES
    if s.endswith(".rbord1") or s.startswith("bord.") or s == "sec2.partition"
)


@dataclass(frozen=True)
class Workload:
    name: str
    suites: tuple
    trials: int
    max_dim: int = 4
    max_degree: int = 4
    q: str = "2"
    programs: int = 0  # seeded .diag programs per pass; if any, the shipped corpus runs too


WORKLOADS = {
    w.name: w
    for w in (
        Workload("check-default", ALL_SUITES, trials=20),
        Workload("trace-wide", tuple(s for s in TRIPLE_CALCULUS if not s.endswith(".rbord1")),
                 trials=6, max_dim=10, max_degree=8, q="3/2"),
        Workload("bordism-diag", BORDISM, trials=40, programs=60),
    )
}


def pass_seed(workload: str, seed: int, index) -> int:
    """Seed of pass `index` (an int, or "warmup"); no two passes share one."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def family(suite_id: str) -> str:
    return suite_id.split(".")[0]


def load_corpus():
    root = resources.files("traced").joinpath("data/corpus")
    names = sorted(p.name for p in root.iterdir() if p.name.endswith(".diag"))
    return [(name, root.joinpath(name).read_text()) for name in names]


@dataclass
class Op:
    """One verdict: a suite or a program."""

    name: str
    family: str
    seconds: float
    checks: int
    correct: bool


@dataclass
class PassResult:
    ops: list
    digest: str
    wall_s: float
    cpu_s: float
    report_json_s: float
    errors: list

    @property
    def checks(self) -> int:
        return sum(op.checks for op in self.ops)


def _report_schema():
    return json.loads(resources.files("traced").joinpath("report_schema.json").read_text())


def pass_programs(w: Workload, seed: int, corpus) -> list:
    """The (name, text) programs of one pass, made before the pass is timed."""
    return (corpus + generate(seed, w.programs)) if w.programs else []


def run_pass(w: Workload, seed: int, programs, wrap_suite=None, wrap_runner=None) -> PassResult:
    """Run one pass of `w` on `seed` and the pass's `programs`.  `wrap_suite`
    and `wrap_runner`, when given, return traced versions of a suite and of
    `run_one`."""
    import jsonschema
    from traced.dsl import AssertResult, parse, pretty, run_text
    from traced.suites import SuiteConfig, SuiteReport, run_one, select_suites

    wall0, cpu0 = time.perf_counter(), time.process_time()
    runner = wrap_runner(run_one) if wrap_runner else run_one
    cfg = SuiteConfig(suites=w.suites, seed=seed, trials=w.trials,
                      max_dim=w.max_dim, max_degree=w.max_degree, q=w.q)
    ops, results, errors = [], [], []
    for sid in w.suites:
        start = time.perf_counter()
        try:
            (suite,) = select_suites(SuiteConfig(suites=(sid,)))
            if wrap_suite:
                suite = wrap_suite(suite)
            r = runner(suite, cfg)
        except Exception as exc:  # a raising suite is one failed operation
            errors.append({"op": sid, "error": f"{type(exc).__name__}: {exc}"})
            ops.append(Op(sid, family(sid), time.perf_counter() - start, 0, False))
            continue
        results.append(r)
        ops.append(Op(sid, family(sid), r.wall_time_s, r.trials,
                      r.passed == (sid not in EXPECTED_RED)))

    decided = []
    for name, text in programs:
        try:
            round_trip = pretty(parse(text)) == text
            start = time.perf_counter()
            report = run_text(text)
            seconds = time.perf_counter() - start
        except Exception as exc:
            errors.append({"op": name, "error": f"{type(exc).__name__}: {exc}"})
            ops.append(Op(name, "diag", 0.0, 0, False))
            continue
        lines = [[r.ok, r.left, r.right] if isinstance(r, AssertResult) else r.text
                 for r in report.results]
        decided.append({"name": name, "round_trip": round_trip, "results": lines})
        ops.append(Op(name, "diag", seconds, 1, round_trip and report.ok))

    start = time.perf_counter()
    doc = SuiteReport(config=cfg, results=results).as_json()
    jsonschema.validate(doc, _report_schema())
    text = json.dumps({"report": doc, "programs": decided, "errors": errors},
                      indent=1, sort_keys=True)
    report_json_s = time.perf_counter() - start
    return PassResult(
        ops=ops,
        digest=hashlib.sha256(text.encode()).hexdigest(),
        wall_s=time.perf_counter() - wall0,
        cpu_s=time.process_time() - cpu0,
        report_json_s=report_json_s,
        errors=errors,
    )
