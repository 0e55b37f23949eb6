"""Checks of the benchmark itself: determinism of its counters and digests,
its known-answer gate, the tracer's self times and its install/uninstall.

Passes here run at two trials per suite so the file stays fast; the
benchmark's own passes use the caps in workloads.py.
"""

import dataclasses
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import traced.matrices  # noqa: E402
import traced.suites  # noqa: E402
import traced.thickened  # noqa: E402
from layers import Tracer  # noqa: E402
from workloads import WORKLOADS, load_corpus, pass_programs, run_pass  # noqa: E402

SEED = 7


def _small(name):
    return dataclasses.replace(WORKLOADS[name], trials=2,
                               programs=min(WORKLOADS[name].programs, 12))


def _traced_pass(w, programs):
    tracer = Tracer()
    tracer.install()
    try:
        result = run_pass(w, SEED, programs, tracer.wrap_suite, tracer.wrap_runner)
    finally:
        tracer.uninstall()
    counters = (dict(tracer.calls), tracer.tokens, tracer.max_dim, tracer.max_nnz,
                tracer.max_coeff_bits, tracer.structural_calls, tracer.structural_repeats,
                tracer.tensor_calls, tracer.tensor_whiskers, result.checks)
    return result, counters, tracer.missing(w.name)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counters_and_digests_repeat_exactly(name):
    w = _small(name)
    programs = pass_programs(w, SEED, load_corpus())
    plain = run_pass(w, SEED, programs)
    first, counters1, missing = _traced_pass(w, programs)
    second, counters2, _ = _traced_pass(w, programs)
    assert counters1 == counters2
    assert plain.digest == first.digest == second.digest
    assert missing == []


def test_every_workload_suite_is_registered():
    for w in WORKLOADS.values():
        assert set(w.suites) <= set(traced.suites.REGISTRY), w.name


def test_wrong_answers_are_scored_as_failed():
    w = dataclasses.replace(WORKLOADS["bordism-diag"], suites=("bord.glue",), trials=2)
    wrong = ("wrong_length", "instance rbord1\nobj X = pts{x}\nobj Y = pts{y}\n"
             "mor a : X -> Y = bord{x->y : 1}\nmor expect : X -> Y = bord{x->y : 2}\n"
             "assert_equal(a, expect)\n")
    broken = ("broken", "instance rbord1\nobj X = pts{x}\nmor a : X -> X = [[1]]\n")
    result = run_pass(w, SEED, [wrong, broken])
    assert [op.correct for op in result.ops] == [True, False, False]
    assert [e["op"] for e in result.errors] == ["broken"]


def test_uninstall_restores_every_binding():
    psi = traced.thickened.psi
    matmul = traced.matrices.RatMatrix.__matmul__
    tracer = Tracer()
    tracer.install()
    assert traced.suites.psi is not psi
    tracer.uninstall()
    assert traced.thickened.psi is psi and traced.suites.psi is psi
    assert traced.matrices.RatMatrix.__matmul__ is matmul


def test_self_time_excludes_children_even_when_they_raise():
    tracer = Tracer()

    def slow_child(fail):
        time.sleep(0.02)
        if fail:
            raise ValueError("child failed")

    child = tracer.span("child", slow_child)

    def parent(fail):
        try:
            child(fail)
        except ValueError:
            pass

    parent = tracer.span("parent", parent)
    for fail in (False, True):
        tracer.reset()
        parent(fail)
        assert tracer.calls == {"parent": 1, "child": 1}
        assert tracer.self_s["child"] >= 0.02
        assert tracer.self_s["parent"] <= tracer.total_s["parent"] - 0.02
