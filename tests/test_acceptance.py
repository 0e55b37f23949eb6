"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

All comparisons here are exact (rational arithmetic or canonical structural
equality); there are no tolerances to calibrate.  Criterion 4's plain-swap
negative control checks the proven cancellation: the report records that no
plain-swap counterexample was found, and on every triple the suite generates
the plain swap gives the same tr_hat as the balanced switching.  The Notes
of docs/traceability.md give the proof and name the twistless control that
shows the twist is necessary.
"""

import json
import time

import pytest

from traced.gens import trial_stream
from traced.suites import REGISTRY, Inputs, SuiteConfig, run_suite
from traced.thickened import tensor_triples, tr_hat

SEED = 42
TRIALS = 200


@pytest.fixture(scope="module")
def full_run():
    cfg = SuiteConfig(suites=("all",), seed=SEED, trials=TRIALS)
    start = time.perf_counter()
    report = run_suite(cfg)
    elapsed = time.perf_counter() - start
    return report, elapsed


def _results(report, *suite_ids):
    by_id = {r.suite_id: r for r in report.results}
    return [by_id[sid] for sid in suite_ids]


def _criterion(number, label, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_01_well_definedness(full_run):
    report, _ = full_run
    rs = _results(report, "whtr.welldef.finvect", "whtr.welldef.supervect",
                  "whtr.welldef.graded", "whtr.welldef.rbord1")
    ok = all(r.passed and r.failures == 0 and r.trials == TRIALS for r in rs)
    _criterion(1, "psi and tr_hat invariant under 200 seeded slides x 4 instances", ok)


def test_criterion_02_symmetry(full_run):
    report, _ = full_run
    rs = _results(report,
                  "whtr.1.finvect", "whtr.1.supervect", "whtr.1.graded", "whtr.1.rbord1",
                  "main2.1.finvect", "main2.1.supervect", "main2.1.graded", "main2.1.rbord1")
    ok = all(r.passed and r.trials == TRIALS for r in rs)
    _criterion(2, "trace and pairing symmetry, 200 trials x 4 instances, exact", ok)


def test_criterion_03_additivity(full_run):
    report, _ = full_run
    rs = _results(report, "whtr.2.finvect", "whtr.2.supervect", "whtr.2.graded",
                  "main2.2.finvect", "main2.2.supervect", "main2.2.graded")
    ok = all(r.passed and r.trials == TRIALS for r in rs)
    _criterion(3, "additivity and bilinearity in the three additive instances", ok)


def test_criterion_04_multiplicativity(full_run):
    report, _ = full_run
    rs = _results(report, "whtr.3.supervect", "whtr.3.graded",
                  "main2.3.supervect", "main2.3.graded",
                  "graded.crossing-regression")
    ok = all(r.passed for r in rs)
    _criterion(4, "multiplicativity in supervect and graded(q=2), with the"
                  " crossing-convention regression pinned", ok)


def test_criterion_04_negative_control(full_run):
    """The plain degree-swap cannot break multiplicativity in graded(q=2):
    a valid t: I -> X (x) Z only hits X_m (x) Z_{-m}, where the balanced
    switching acts by q^{m(-m)} * q^{m^2} = 1, i.e. as the plain swap, so
    tr_hat is unchanged.  The report must record that negative result
    honestly (no counterexample, suite red), and the cancellation must hold
    exactly on every triple the suite generates, including tensor products.
    The twistless control carries the necessity of the twist; see the Notes
    of docs/traceability.md."""
    report, _ = full_run
    suite_id = "balanced.negative-control"
    (res,) = _results(report, suite_id)
    recorded = (res.trials == TRIALS and res.expect_counterexample
                and res.counterexamples_found == 0
                and res.counterexample is None and not res.passed)

    cancels = True
    nonzero = 0
    for trial in range(TRIALS):
        inputs = Inputs(REGISTRY[suite_id].gen(report.config,
                                               trial_stream(SEED, suite_id, trial)))
        inst = inputs.inst
        zero = inst.zero_mor(inst.unit_object(), inst.unit_object())
        x1, x2 = inputs.obj("x1", "x2")
        tr1 = inputs.triple("a{}", x1, x1)
        tr2 = inputs.triple("b{}", x2, x2)
        for tr in (tr1, tr2, tensor_triples(tr1, tr2)):
            value = tr_hat(tr)
            swapped = inst.compose(tr.b, inst.compose(inst.plain_swap(tr.dom, tr.z), tr.t))
            cancels = cancels and inst.mor_equal(swapped, value)
            nonzero += not inst.mor_equal(value, zero)
    _criterion("4-negative-control",
               "plain-swap switching finds no multiplicativity counterexample"
               " in 200 trials, because the plain swap equals the balanced"
               f" switching inside tr_hat on all {3 * TRIALS} generated triples"
               f" ({nonzero} with nonzero tr_hat)",
               recorded and cancels and nonzero > 0)


def test_criterion_04_twistless_control_addendum(full_run):
    report, _ = full_run
    (res,) = _results(report, "balanced.twistless-control")
    ok = res.passed and res.counterexamples_found >= 1
    _criterion("4-addendum", "dropping only the twist yields counterexamples"
                             " (balanced hypothesis necessary)", ok)


def test_criterion_05_classical_trace(full_run):
    report, _ = full_run
    rs = _results(report, "dual.trace.finvect", "dual.trace.supervect",
                  "vect.trace.finvect", "dual.bijection.finvect")
    ok = all(r.passed and r.trials == TRIALS for r in rs)
    _criterion(5, "categorical trace equals the diagonal sum (super trace in"
                  " supervect) on dims <= 5", ok)


def test_criterion_06_bordism_theorem(full_run):
    report, _ = full_run
    rs = _results(report, "bord.glue", "bord.cuts", "bord.thick")
    ok = all(r.passed and r.trials == TRIALS for r in rs)
    _criterion(6, "glue_trace = tr_hat . cut_thickener and independent cuts"
                  " agree, 200 random bordisms", ok)


def test_criterion_07_partition(full_run):
    report, _ = full_run
    (res,) = _results(report, "sec2.partition")
    ok = res.passed and res.trials == TRIALS
    _criterion(7, "closed evaluation equals the trace pairing on 200 random"
                  " integer-length directed pairs", ok)


def test_criterion_08_witness(full_run):
    report, _ = full_run
    rs = _results(report, "lem.witness.finvect", "lem.witness.supervect",
                  "lem.witness.graded")
    ok = all(r.passed and r.trials == TRIALS for r in rs)
    _criterion(8, "the composition witness satisfies both slide equations,"
                  " 200 trials per matrix instance", ok)


def test_criterion_09_dsl(full_run, tmp_path, capsys):
    report, _ = full_run
    (res,) = _results(report, "dsl.corpus")
    corpus_ok = res.passed and res.trials == 50

    from traced.cli import main

    good = tmp_path / "ok.diag"
    good.write_text("instance finvect\nobj X = 2\nassert_equal(id(X), id(X))\n")
    bad = tmp_path / "bad.diag"
    bad.write_text("instance finvect\nmor a : I -> I = [[1]]\n"
                   "mor b : I -> I = [[2]]\nassert_equal(a, b)\n")
    code_good = main(["eval", str(good)])
    code_bad = main(["eval", str(bad)])
    capsys.readouterr()
    exit_ok = code_good == 0 and code_bad == 1
    _criterion(9, "50-program corpus round-trips and evaluates; eval exit"
                  " codes correct", corpus_ok and exit_ok)


def test_criterion_10_runtime_and_determinism(full_run):
    report, elapsed = full_run
    runtime_ok = elapsed < 60.0
    again = run_suite(SuiteConfig(suites=("all",), seed=SEED, trials=TRIALS))
    identical = json.dumps(report.as_json(), sort_keys=True) == json.dumps(
        again.as_json(), sort_keys=True
    )
    _criterion(10, f"full run in {elapsed:.1f}s (< 60s) with identical JSON"
                   " for identical seeds", runtime_ok and identical)
