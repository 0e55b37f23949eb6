"""Mutation guard: each plausible semantic bug below must turn a named
property suite red through a failed claim, not through an exception.

A mutant is a function `mutant(patch)` that applies its monkeypatches
through `patch(owner, name, value)`; nothing rewrites source.  A passing
suite reports only its counts, so the report pins cannot see a dropped
claim; these kills can.  Each test runs one suite at 40 trials, seed 42.
"""

import dataclasses
import importlib
import importlib.util
import pathlib

import pytest

from traced import bordism, suites, thickened
from traced.bordism import Bord, RBord1
from traced.core import Morphism, instance_of
from traced.graded import GradedVect
from traced.matrices import RatMatrix
from traced.suites import REGISTRY, SuiteConfig, run_one
from traced.vect import MatrixCategory, SuperVect, dim


def koszul_sign_dropped(patch):
    """SuperVect braids and switches odd lines without the sign."""
    patch(SuperVect, "_braid_scalar", lambda self, a, b: 1)


def switch_q_mn_plus_m(patch):
    """The graded switching scalar q^{mn + m^2} becomes q^{mn + m}."""
    patch(GradedVect, "_switch_scalar", lambda self, a, b: self.q ** (a * b + a))


def braid_q_minus_mn(patch):
    """The graded braiding scalar q^{mn} becomes q^{-mn}."""
    patch(GradedVect, "_braid_scalar", lambda self, a, b: self.q ** (-a * b))


def tr_hat_braids(patch):
    """tr_hat closes the loop with the braiding c_{X,Z}, not s_{X,Z}."""
    def tr_hat(tr):
        inst = instance_of(tr.dom)
        return inst.compose(tr.b, inst.compose(inst.braiding_c(tr.dom, tr.z), tr.t))

    for module in (thickened, suites, importlib.import_module("traced.dsl.typecheck")):
        patch(module, "tr_hat", tr_hat)


def inverse_braiding_over(patch):
    """c^{-1}_{X,Y} becomes the over-crossing c_{Y,X}, same source and target."""
    patch(MatrixCategory, "braiding_c_inv",
          lambda self, x, y: MatrixCategory.braiding_c(self, y, x))


def coev_scaled(patch):
    """coev: I -> X (x) X* doubles its first basis term."""
    dual_data = MatrixCategory.dual_data

    def scaled(self, x):
        xd, ev, coev = dual_data(self, x)
        n = len(x.payload)
        mat = RatMatrix(n * n, 1, {(i * n + i, 0): 2 if i == 0 else 1 for i in range(n)})
        return xd, ev, Morphism(self.instance_id, coev.source, coev.target, mat)

    patch(MatrixCategory, "dual_data", scaled)


def psi_kernel_doubled(patch):
    """The psi contraction kernel doubles every output of more than 4 entries."""
    psi_kernel = MatrixCategory.psi_kernel

    def doubled(self, tr):
        out = psi_kernel(self, tr)
        return out if out.payload.rows * out.payload.cols <= 4 else self.add_mor(out, out)

    patch(MatrixCategory, "psi_kernel", doubled)


def canonical_f_transposed(patch):
    """The canonical_thickener kernel reads f's transpose into t."""
    kernel = MatrixCategory.canonical_thickener_kernel

    def transposed(self, f, xd):
        return kernel(self, dataclasses.replace(f, payload=f.payload.transpose()), xd)

    patch(MatrixCategory, "canonical_thickener_kernel", transposed)


def add_triples_b_blocks_swapped(patch):
    """The add_triples kernel lays b2's block before b1's in b, against the
    Z1 (+) Z2 order of t."""
    kernel = MatrixCategory.add_triples_kernel

    def swapped(self, tr1, tr2):
        total = kernel(self, tr1, tr2)
        b = dataclasses.replace(total.b, payload=kernel(self, tr2, tr1).b.payload)
        return dataclasses.replace(total, b=b)

    patch(MatrixCategory, "add_triples_kernel", swapped)


def hat_witness_untransposed(patch):
    """The hat_comp_witness kernel returns B1 @ T2 without the transpose."""
    kernel = MatrixCategory.hat_comp_witness_kernel

    def untransposed(self, tr1, tr2):
        g = kernel(self, tr1, tr2)
        return dataclasses.replace(g, payload=g.payload.transpose())

    patch(MatrixCategory, "hat_comp_witness_kernel", untransposed)


def pre_compose_column_major(patch):
    """The pre_compose kernel flattens B @ F column-major into b."""
    kernel = MatrixCategory.pre_compose_kernel

    def column_major(self, tr, f):
        b = kernel(self, tr, f)
        product = b.payload.reshape(dim(tr.z), dim(f.source))
        return dataclasses.replace(b, payload=product.transpose().reshape(1, b.payload.cols))

    patch(MatrixCategory, "pre_compose_kernel", column_major)


def post_compose_column_major(patch):
    """The post_compose kernel flattens F @ T column-major into t."""
    kernel = MatrixCategory.post_compose_kernel

    def column_major(self, f, tr):
        t = kernel(self, f, tr)
        product = t.payload.reshape(dim(f.target), dim(tr.z))
        return dataclasses.replace(t, payload=product.transpose().reshape(t.payload.rows, 1))

    patch(MatrixCategory, "post_compose_kernel", column_major)


def psi_gluing_loses_loops(patch):
    """The rbord1 psi kernel keeps only its operands' circles, not the loops
    that close up through Z."""
    kernel = RBord1.psi_kernel

    def lossy(self, tr):
        out = kernel(self, tr)
        kept = tr.t.payload.circles + tr.b.payload.circles
        return dataclasses.replace(out, payload=Bord.make(out.payload.arcs, kept))

    patch(RBord1, "psi_kernel", lossy)


def tr_hat_gluing_drops_operand_circles(patch):
    """The rbord1 tr_hat kernel keeps the loops it closes but drops the free
    circles of t and b."""
    def bare(m):
        return dataclasses.replace(m, payload=Bord(m.payload.arcs, ()))

    kernel = RBord1.tr_hat_kernel
    patch(RBord1, "tr_hat_kernel",
          lambda self, tr: kernel(self, dataclasses.replace(tr, t=bare(tr.t), b=bare(tr.b))))


def pre_compose_gluing_drops_f_circles(patch):
    """The rbord1 pre_compose kernel forgets the free circles of f."""
    kernel = RBord1.pre_compose_kernel

    def forgetful(self, tr, f):
        f = dataclasses.replace(f, payload=Bord(f.payload.arcs, ()))
        return kernel(self, tr, f)

    patch(RBord1, "pre_compose_kernel", forgetful)


def post_compose_gluing_skips_f_lengths(patch):
    """The rbord1 post_compose kernel gives each chain the length of its t
    piece only, as if f's arcs had length zero."""
    kernel = RBord1.post_compose_kernel

    def thin(self, f, tr):
        arcs = tuple((a, b, bordism._ZERO) for (a, b, _l) in f.payload.arcs)
        f = dataclasses.replace(f, payload=Bord(arcs, f.payload.circles))
        return kernel(self, f, tr)

    patch(RBord1, "post_compose_kernel", thin)


def hat_witness_gluing_sides_swapped(patch):
    """The rbord1 hat_comp_witness kernel puts Z1 on the out-side of g and
    Z2 on the in-side."""
    kernel = RBord1.hat_comp_witness_kernel
    flip = {bordism.IN: bordism.OUT, bordism.OUT: bordism.IN}

    def swapped(self, tr1, tr2):
        g = kernel(self, tr1, tr2)
        arcs = [((flip[a[0]], a[1]), (flip[b[0]], b[1]), l) for (a, b, l) in g.payload.arcs]
        return dataclasses.replace(g, payload=Bord.make(arcs, g.payload.circles))

    patch(RBord1, "hat_comp_witness_kernel", swapped)


def chain_length_longest_piece(patch):
    """rbord1 gives a glued chain the length of its longest piece, not the sum."""
    def chains(arcs, glue, ends=()):
        arc_at, visited = {}, set()
        for (a, b, l) in arcs:
            arc_at[a] = (b, l)
            arc_at[b] = (a, l)

        def walk(start):
            total, cur = bordism._ZERO, start
            while True:
                visited.add(cur)
                nxt, l = arc_at[cur]
                visited.add(nxt)
                total = max(total, l)
                cur = glue.get(nxt)
                if cur is None or cur == start:
                    return nxt, total

        opened = [(start, *walk(start)) for start in ends if start not in visited]
        return opened, [walk(node)[1] for node in arc_at if node not in visited]

    patch(bordism, "_chains", chains)


def closed_chains_dropped(patch):
    """rbord1 forgets the circles that gluing closes up."""
    chains = bordism._chains
    patch(bordism, "_chains", lambda arcs, glue, ends=(): (chains(arcs, glue, ends)[0], []))


# mutant -> (property suite it turns red, detail of its first failed claim)
KILLS = {
    koszul_sign_dropped: ("dual.trace.supervect", "categorical 5/2 != super trace -5/2"),
    switch_q_mn_plus_m: ("kernel.oracle.graded", "switching differs from (id (x) theta) . c"),
    braid_q_minus_mn: ("balanced.twist", "twist equation fails"),
    tr_hat_braids: ("whtr.3.graded", "tr_hat is not multiplicative"),
    inverse_braiding_over: ("whtr.3.graded", "psi is not multiplicative"),
    coev_scaled: ("dual.bijection.finvect", "zigzag identities fail"),
    psi_kernel_doubled: ("kernel.oracle.finvect", "psi kernel differs from the whiskered composite"),
    canonical_f_transposed: ("kernel.oracle.finvect",
                             "canonical_thickener kernel differs from the whiskered composite"),
    add_triples_b_blocks_swapped: ("kernel.oracle.finvect",
                                   "add_triples kernel differs from the whiskered composite"),
    hat_witness_untransposed: ("kernel.oracle.finvect",
                               "hat_comp_witness kernel differs from the whiskered composite"),
    pre_compose_column_major: ("kernel.oracle.finvect",
                               "pre_compose kernel differs from the whiskered composite"),
    post_compose_column_major: ("kernel.oracle.finvect",
                                "post_compose kernel differs from the whiskered composite"),
    psi_gluing_loses_loops: ("kernel.oracle.rbord1",
                             "psi kernel differs from the whiskered composite"),
    tr_hat_gluing_drops_operand_circles: ("kernel.oracle.rbord1",
                                          "tr_hat kernel differs from the whiskered composite"),
    pre_compose_gluing_drops_f_circles: ("kernel.oracle.rbord1",
                                         "pre_compose kernel differs from the whiskered composite"),
    post_compose_gluing_skips_f_lengths: ("kernel.oracle.rbord1",
                                          "post_compose kernel differs from the whiskered composite"),
    hat_witness_gluing_sides_swapped: ("kernel.oracle.rbord1",
                                       "hat_comp_witness kernel differs from the whiskered composite"),
    chain_length_longest_piece: ("bord.glue", "glue_trace != tr_hat . cut_thickener"),
    closed_chains_dropped: ("sec2.partition", "partition value 1 != pairing -8192"),
}


def assert_killed(monkeypatch, mutant, sid, detail):
    """The suite's first failure at 40 trials, seed 42, is the named claim;
    an exception would fail the test instead."""
    suite = REGISTRY[sid]
    assert not suite.expect_counterexample
    mutant(monkeypatch.setattr)
    res = run_one(suite, SuiteConfig(suites=(sid,), trials=40, seed=42))
    assert res.failures > 0 and res.counterexample["detail"] == detail


@pytest.mark.parametrize("mutant", list(KILLS), ids=lambda m: m.__name__)
def test_mutant_turns_a_property_suite_red(monkeypatch, mutant):
    assert_killed(monkeypatch, mutant, *KILLS[mutant])


def test_dual_trace_graded_sees_tr_hat_braids(monkeypatch):
    """Closing tr_hat with c_{X,X*} scales the diagonal term of degree m by
    q^{-m^2}, which the classical trace of the canonical thickener exposes;
    whtr.3.graded alone saw this mutant before."""
    assert_killed(monkeypatch, tr_hat_braids, "dual.trace.graded",
                  "categorical 1/6 != classical trace 1/3")


def load_tool():
    path = pathlib.Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
    spec = importlib.util.spec_from_file_location("mutants_tool", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutants_tool_refuses_no_trials_and_reports_a_kill(capsys):
    """With no trials every mutant would survive, which reads like a real
    survivor's exit 1, so `--trials 0` is refused with exit 2.  A crash is
    named by its cause: the DSL corpus rewraps the error of a step as
    DslError, and the row names the error it wraps."""
    tool = load_tool()
    with pytest.raises(SystemExit) as exc:
        tool.main(["--trials", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert tool.main(["--trials", "5", "koszul_sign_dropped"]) == 0
    row = [line for line in capsys.readouterr().out.splitlines()
           if line.startswith("| `koszul_sign_dropped` |")]
    assert len(row) == 1 and "`dual.trace.supervect`" in row[0]
    tool.main(["--trials", "1", "tr_hat_braids"])
    row = [line for line in capsys.readouterr().out.splitlines()
           if line.startswith("| `tr_hat_braids` |")]
    assert len(row) == 1 and "`dsl.corpus` CapabilityMissing" in row[0]
