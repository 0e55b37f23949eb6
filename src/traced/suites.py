"""Theorem-indexed property suites and the machine-readable report.

Every suite draws each trial from an independent PRNG stream derived from
(seed, suite id, trial index), so identical configs give identical reports
and parallel execution cannot change results.  All comparisons are exact;
there are no tolerances anywhere.

Negative-control suites invert pass semantics: they PASS when a
counterexample is found within the trial budget, and record it.  Pinned
regression inputs shipped with the package are re-checked first.

Suites come in families: one property, checked on each of a list of
instances.  A family is a function `key -> (gen, check)` registered with
`@family(...)`, which declares all of its metadata in one place.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from dataclasses import dataclass
from importlib import resources

from . import serde
from .core import get_instance
from .gens import (
    Stream,
    gen_bordism,
    gen_endo_pair,
    gen_matrix_mor,
    gen_morphism,
    gen_object,
    gen_point_set,
    gen_triple,
    trial_stream,
)
from .bordism import Bord
from .matrices import RatMatrix
from .thickened import (
    ThickTriple,
    add_triples,
    canonical_thickener,
    hat_comp_witness,
    negate_triple,
    pad_thickener,
    post_compose,
    post_compose_composite,
    pre_compose,
    pre_compose_composite,
    psi,
    psi_composite,
    slide_pair,
    tensor_triples,
    tr_hat,
    trace_pairing,
    zero_triple,
)
from .vect import alpha, phi, phi_inv
from .field_theory import field_theory
from ._rat import rat, rat_str

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SuiteConfig:
    suites: tuple = ("all",)
    seed: int = 42
    trials: int = 200
    max_dim: int = 4
    max_degree: int = 4
    q: str = "2"

    def as_dict(self):
        return {
            "suites": list(self.suites),
            "seed": self.seed,
            "trials": self.trials,
            "max_dim": self.max_dim,
            "max_degree": self.max_degree,
            "q": self.q,
        }


@dataclass
class SuiteResult:
    suite_id: str
    tag: str
    trials: int
    failures: int
    passed: bool
    expect_counterexample: bool
    counterexamples_found: int
    counterexample: dict | None
    wall_time_s: float

    def as_json(self):
        """Stable JSON form; wall time is deliberately excluded so identical
        seeds give byte-identical reports."""
        return {
            "id": self.suite_id,
            "tag": self.tag,
            "trials": self.trials,
            "failures": self.failures,
            "passed": self.passed,
            "expect_counterexample": self.expect_counterexample,
            "counterexamples_found": self.counterexamples_found,
            "counterexample": self.counterexample,
        }


@dataclass
class SuiteReport:
    config: SuiteConfig
    results: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def as_json(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.as_dict(),
            "suites": [r.as_json() for r in self.results],
            "passed": self.passed,
        }


@dataclass(frozen=True)
class Suite:
    suite_id: str
    tag: str
    description: str
    gen: object
    check: object
    expect_counterexample: bool = False
    pinned: str | None = None  # package-data file of regression inputs
    data_gen: object = None  # data-driven suites (corpus) use this instead of gen
    data_trials: object = None  # with data_gen: cfg -> number of trials


# ---------------------------------------------------------------------------
# declarative registration
# ---------------------------------------------------------------------------

# instance keys shared by several families
ALL = ("finvect", "supervect", "graded", "rbord1")
MATRIX = ("finvect", "supervect", "graded")

_SUITES = []  # (group, key position, suite), in declaration order


def family(prefix, tag, description, keys=(None,), group=None, *,
           expect_counterexample=False, pinned=None, data_trials=None):
    """Register the decorated `build: key -> (gen, check)` as one suite per
    key, named `prefix.key` (just `prefix` for the key None).  With
    `data_trials` (cfg -> number of trials), `build` returns
    `(data_gen, check)` instead.  Suites register in declaration order,
    except that consecutive families of one `group` share their keys and
    register key-major: each family for the first key, then the next."""
    def register(build):
        for pos, key in enumerate(keys):
            first, check = build(key)
            suite = Suite(f"{prefix}.{key}" if key else prefix, tag, description,
                          gen=None if data_trials else first, check=check,
                          expect_counterexample=expect_counterexample, pinned=pinned,
                          data_gen=first if data_trials else None, data_trials=data_trials)
            _SUITES.append((group or prefix, pos, suite))
        return build
    return register


def _inst(key: str, cfg: SuiteConfig):
    if key == "graded":
        return get_instance(f"graded(q={cfg.q})")
    return get_instance(key)


def _triple_inputs(inst, name, tr, suffix=""):
    """Inputs `{name}t{suffix}`, `{name}b{suffix}` and `{name}z{suffix}` (as
    its identity) of the triple `tr`; `_triple_from_inputs` rebuilds it."""
    return {f"{name}t{suffix}": tr.t, f"{name}b{suffix}": tr.b,
            f"{name}z{suffix}": inst.identity(tr.z)}


def _triple_from_inputs(inputs, name, dom, cod, suffix=""):
    return ThickTriple(dom=dom, cod=cod, z=inputs[f"{name}z{suffix}"].source,
                       t=inputs[f"{name}t{suffix}"], b=inputs[f"{name}b{suffix}"])


# ---------------------------------------------------------------------------
# generators and checks, one family per invariant cluster, in registry order
# ---------------------------------------------------------------------------


def _gen_chain_objects(inst, rng: Stream, cfg: SuiteConfig, count: int, prefix: str):
    """Objects usable in a composable chain; in rbord1 all share one parity
    so random matchings exist between consecutive ones."""
    if inst.instance_id == "rbord1":
        par = rng.randint(0, 1)
        sizes = [par + 2 * rng.randint(0, 1) for _ in range(count)]
        return [gen_point_set(inst, rng, s, prefix=f"{prefix}{i}") for i, s in enumerate(sizes)]
    return [gen_object(inst, rng, cfg.max_dim, cfg.max_degree) for _ in range(count)]


def _gen_same_parity(inst, rng: Stream, cfg: SuiteConfig, *prefixes):
    """One object per prefix; in rbord1 they share one parity, so triples
    and morphisms exist between any two.  Unlike `_gen_chain_objects`, each
    size is drawn just before its points."""
    if inst.instance_id == "rbord1":
        par = rng.randint(0, 1)
        return [gen_point_set(inst, rng, par + 2 * rng.randint(0, 1), prefix=p)
                for p in prefixes]
    return [gen_object(inst, rng, cfg.max_dim, cfg.max_degree) for _ in prefixes]


@family("core.laws", "core.laws", "associativity, unit laws, interchange, strict unit",
        ALL, group="all instances")
def core_laws(key):
    def gen(cfg, rng):
        inst = _inst(key, cfg)
        a, b, c, d = _gen_chain_objects(inst, rng, cfg, 4, "a")
        e, f3, g3 = _gen_chain_objects(inst, rng, cfg, 3, "m")
        return {
            "f": gen_morphism(inst, a, b, rng),
            "g": gen_morphism(inst, b, c, rng),
            "h": gen_morphism(inst, c, d, rng),
            "p": gen_morphism(inst, e, f3, rng),
            "q": gen_morphism(inst, f3, g3, rng),
        }

    def check(inputs):
        f, g, h = inputs["f"], inputs["g"], inputs["h"]
        p, q = inputs["p"], inputs["q"]
        inst = get_instance(f.instance_id)
        assoc = inst.mor_equal(
            inst.compose(inst.compose(h, g), f), inst.compose(h, inst.compose(g, f))
        )
        unit = inst.mor_equal(inst.compose(inst.identity(f.target), f), f) and inst.mor_equal(
            inst.compose(f, inst.identity(f.source)), f
        )
        lhs = inst.tensor(inst.compose(g, f), inst.compose(q, p))
        rhs = inst.compose(inst.tensor(g, q), inst.tensor(f, p))
        inter = inst.mor_equal(lhs, rhs)
        strict = inst.mor_equal(inst.tensor(f, inst.identity(inst.unit_object())), f)
        if not assoc:
            return False, "associativity failed"
        if not unit:
            return False, "unit law failed"
        if not inter:
            return False, "interchange law failed"
        if not strict:
            return False, "strict unit failed"
        return True, ""

    return gen, check


@family("core.naturality", "core.naturality", "naturality of the switching isomorphism",
        ALL, group="all instances")
def core_naturality(key):
    def gen(cfg, rng):
        inst = _inst(key, cfg)
        x1, x2 = _gen_chain_objects(inst, rng, cfg, 2, "x")
        y1, y2 = _gen_chain_objects(inst, rng, cfg, 2, "y")
        return {
            "g": gen_morphism(inst, x1, x2, rng),
            "h": gen_morphism(inst, y1, y2, rng),
        }

    def check(inputs):
        g, h = inputs["g"], inputs["h"]
        inst = get_instance(g.instance_id)
        lhs = inst.compose(inst.switching(g.target, h.target), inst.tensor(g, h))
        rhs = inst.compose(inst.tensor(h, g), inst.switching(g.source, h.source))
        return inst.mor_equal(lhs, rhs), "naturality square broken"

    return gen, check


@family("whtr.welldef", "whtr.welldef",
        "psi and tr_hat are invariant under slides of representatives",
        ALL, group="all instances")
def whtr_welldef(key):
    def gen(cfg, rng):
        inst = _inst(key, cfg)
        if inst.instance_id == "rbord1":
            x = gen_point_set(inst, rng, rng.randint(0, cfg.max_dim), prefix="x")
            par = len(x.payload) % 2
            nz = rng.randint(0, cfg.max_dim)
            nz += (nz + par) % 2
            nz2 = rng.randint(0, cfg.max_dim)
            nz2 += (nz2 + par) % 2
            z = gen_point_set(inst, rng, nz, prefix="z")
            z2 = gen_point_set(inst, rng, nz2, prefix="w")
            t = gen_bordism(inst, inst.unit_object(), inst.tensor_obj(x, z), rng, max_circles=0)
            bp = gen_bordism(inst, inst.tensor_obj(z2, x), inst.unit_object(), rng, max_circles=0)
            g = gen_morphism(inst, z, z2, rng)
        else:
            x = gen_object(inst, rng, cfg.max_dim, cfg.max_degree)
            z = gen_object(inst, rng, cfg.max_dim, cfg.max_degree)
            z2 = gen_object(inst, rng, cfg.max_dim, cfg.max_degree)
            t = gen_matrix_mor(inst, inst.unit_object(), inst.tensor_obj(x, z), rng)
            bp = gen_matrix_mor(inst, inst.tensor_obj(z2, x), inst.unit_object(), rng)
            g = gen_matrix_mor(inst, z, z2, rng)
        return {"t": t, "bp": bp, "g": g, "x": inst.identity(x)}

    def check(inputs):
        t, bp, g = inputs["t"], inputs["bp"], inputs["g"]
        x = inputs["x"].source
        inst = get_instance(t.instance_id)
        w = slide_pair(t, bp, g, dom=x, cod=x)
        if not w.holds():
            return False, "constructed slide witness does not satisfy its equations"
        if not inst.mor_equal(psi(w.left), psi(w.right)):
            return False, "psi not slide-invariant"
        if not inst.mor_equal(tr_hat(w.left), tr_hat(w.right)):
            return False, "tr_hat not slide-invariant"
        return True, ""

    return gen, check


def _gen_triple_and_back(key):
    """The generator of a triple over (X, Y) and a morphism Y -> X."""
    def gen(cfg, rng):
        inst = _inst(key, cfg)
        x, y = _gen_same_parity(inst, rng, cfg, "x", "y")
        f_hat = gen_triple(inst, x, y, rng, cfg.max_dim, cfg.max_degree)
        g = gen_morphism(inst, y, x, rng)
        return {**_triple_inputs(inst, "", f_hat),
                "x": inst.identity(x), "y": inst.identity(y), "g": g}

    return gen


@family("whtr.1", "whtr.1", "symmetry of the thickened trace under cyclic exchange",
        ALL, group="all instances")
def whtr_1(key):
    def check(inputs):
        inst = get_instance(inputs["t"].instance_id)
        f_hat = _triple_from_inputs(inputs, "", inputs["x"].source, inputs["y"].source)
        g = inputs["g"]
        lhs = tr_hat(pre_compose(f_hat, g))
        rhs = tr_hat(post_compose(g, f_hat))
        return inst.mor_equal(lhs, rhs), "tr_hat(hat(f).g) != tr_hat(g.hat(f))"

    return _gen_triple_and_back(key), check


@family("main2.1", "main2.1", "symmetry of the trace pairing", ALL, group="all instances")
def main2_1(key):
    def gen(cfg, rng):
        inst = _inst(key, cfg)
        x, y = _gen_same_parity(inst, rng, cfg, "x", "y")
        f_hat = gen_triple(inst, x, y, rng, cfg.max_dim, cfg.max_degree)
        g_hat = gen_triple(inst, y, x, rng, cfg.max_dim, cfg.max_degree)
        return {**_triple_inputs(inst, "f", f_hat), **_triple_inputs(inst, "g", g_hat),
                "x": inst.identity(x), "y": inst.identity(y)}

    def check(inputs):
        inst = get_instance(inputs["ft"].instance_id)
        x, y = inputs["x"].source, inputs["y"].source
        f_hat = _triple_from_inputs(inputs, "f", x, y)
        g_hat = _triple_from_inputs(inputs, "g", y, x)
        lhs = trace_pairing(f_hat, psi(g_hat))
        rhs = trace_pairing(g_hat, psi(f_hat))
        return inst.mor_equal(lhs, rhs), "tr(f,g) != tr(g,f)"

    return gen, check


@family("lem.witness", "whtr.witness",
        "hat(f1).f2 and f1.hat(f2) are one explicit slide apart", ALL, group="all instances")
def lem_witness(key):
    def gen(cfg, rng):
        inst = _inst(key, cfg)
        u, x, y = _gen_same_parity(inst, rng, cfg, "u", "x", "y")
        tr1 = gen_triple(inst, x, y, rng, cfg.max_dim, cfg.max_degree, z_prefix="z")
        tr2 = gen_triple(inst, u, x, rng, cfg.max_dim, cfg.max_degree, z_prefix="w")
        return {**_triple_inputs(inst, "", tr1, suffix="1"),
                **_triple_inputs(inst, "", tr2, suffix="2"),
                "u": inst.identity(u), "x": inst.identity(x), "y": inst.identity(y)}

    def check(inputs):
        inst = get_instance(inputs["t1"].instance_id)
        u, x, y = (inputs[k].source for k in "uxy")
        tr1 = _triple_from_inputs(inputs, "", x, y, suffix="1")
        tr2 = _triple_from_inputs(inputs, "", u, x, suffix="2")
        w = hat_comp_witness(tr1, tr2)
        if not w.holds():
            return False, "witness equations fail"
        target = inst.compose(psi(tr1), psi(tr2))
        if not inst.mor_equal(psi(w.left), target) or not inst.mor_equal(psi(w.right), target):
            return False, "witnessed triples do not factor the composite"
        return True, ""

    return gen, check


@family("core.symmetry", "core.symmetry", "s(Y,X) . s(X,Y) = id in symmetric instances",
        ("finvect", "supervect"), group="symmetric")
def core_symmetry(key):
    def gen(cfg, rng):
        inst = _inst(key, cfg)
        x = gen_object(inst, rng, cfg.max_dim, cfg.max_degree)
        y = gen_object(inst, rng, cfg.max_dim, cfg.max_degree)
        return {"x": inst.identity(x), "y": inst.identity(y)}

    def check(inputs):
        xi, yi = inputs["x"], inputs["y"]
        inst = get_instance(xi.instance_id)
        x, y = xi.source, yi.source
        both = inst.compose(inst.switching(y, x), inst.switching(x, y))
        return (
            inst.mor_equal(both, inst.identity(inst.tensor_obj(x, y))),
            "switching is not involutive",
        )

    return gen, check


@family("vect.injective", "vect.2", "phi (hence psi) is injective: phi(t) = 0 iff t = 0",
        ("finvect", "supervect"), group="symmetric")
def vect_injective(key):
    def gen(cfg, rng):
        inst = _inst(key, cfg)
        x = gen_object(inst, rng, cfg.max_dim, cfg.max_degree)
        y = gen_object(inst, rng, cfg.max_dim, cfg.max_degree)
        t = gen_matrix_mor(inst, inst.unit_object(),
                           inst.tensor_obj(y, inst.dual_obj(x)), rng)
        return {"t": t, "x": inst.identity(x)}

    def check(inputs):
        t = inputs["t"]
        x = inputs["x"].source
        image = phi(t, x)
        if t.payload.is_zero() != image.payload.is_zero():
            return False, "phi(t) = 0 does not match t = 0"
        return True, ""

    return gen, check


@family("dual.trace", "dual.2",
        "trace of the canonical thickener matches the classical value",
        ("finvect", "supervect"), group="symmetric")
def dual_trace(key):
    def gen(cfg, rng):
        inst = _inst(key, cfg)
        x = gen_object(inst, rng, min(cfg.max_dim + 1, 5), cfg.max_degree)
        return {"f": gen_matrix_mor(inst, x, x, rng)}

    def check(inputs):
        f = inputs["f"]
        inst = get_instance(f.instance_id)
        got = inst.scalar_value(tr_hat(canonical_thickener(f)))
        if inst.instance_id == "supervect":
            want = inst.super_trace(f)
            label = "super trace"
        else:
            want = inst.classical_trace(f)
            label = "classical trace"
        return got == want, f"categorical {rat_str(got)} != {label} {rat_str(want)}"

    return gen, check


@family("whtr.pad", "whtr.welldef", "padding the thickening object with junk changes nothing",
        MATRIX, group="matrix")
def whtr_pad(key):
    def gen(cfg, rng):
        inst = _inst(key, cfg)
        x, tr = gen_endo_pair(inst, rng, cfg.max_dim, cfg.max_degree)
        w = gen_object(inst, rng, cfg.max_dim, cfg.max_degree)
        junk = gen_matrix_mor(inst, inst.tensor_obj(w, x), inst.unit_object(), rng)
        return {**_triple_inputs(inst, "", tr), "x": inst.identity(x),
                "w": inst.identity(w), "junk": junk}

    def check(inputs):
        inst = get_instance(inputs["t"].instance_id)
        x = inputs["x"].source
        tr = _triple_from_inputs(inputs, "", x, x)
        padded = pad_thickener(tr, inputs["w"].source, inputs["junk"])
        if not inst.mor_equal(psi(padded), psi(tr)):
            return False, "psi changed under padding"
        if not inst.mor_equal(tr_hat(padded), tr_hat(tr)):
            return False, "tr_hat changed under padding"
        return True, ""

    return gen, check


@family("pairing.trace", "main2.1", "the pairing equals the categorical trace of the composite",
        MATRIX, group="matrix")
def pairing_trace(key):
    def check(inputs):
        inst = get_instance(inputs["t"].instance_id)
        f_hat = _triple_from_inputs(inputs, "", inputs["x"].source, inputs["y"].source)
        g = inputs["g"]
        pair = trace_pairing(f_hat, g)
        composite = inst.compose(psi(f_hat), g)
        via_trace = tr_hat(canonical_thickener(composite))
        return inst.mor_equal(pair, via_trace), "tr(f,g) != tr(f.g)"

    return _gen_triple_and_back(key), check


@family("whtr.2", "whtr.2", "additivity of psi and tr_hat; abelian-group structure",
        MATRIX, group="matrix")
def whtr_2(key):
    def gen(cfg, rng):
        inst = _inst(key, cfg)
        x, tr1 = gen_endo_pair(inst, rng, cfg.max_dim, cfg.max_degree)
        tr2 = gen_triple(inst, x, x, rng, cfg.max_dim, cfg.max_degree)
        return {**_triple_inputs(inst, "", tr1, suffix="1"),
                **_triple_inputs(inst, "", tr2, suffix="2"), "x": inst.identity(x)}

    def check(inputs):
        inst = get_instance(inputs["t1"].instance_id)
        x = inputs["x"].source
        tr1 = _triple_from_inputs(inputs, "", x, x, suffix="1")
        tr2 = _triple_from_inputs(inputs, "", x, x, suffix="2")
        total = add_triples(tr1, tr2)
        if not inst.mor_equal(psi(total), inst.add_mor(psi(tr1), psi(tr2))):
            return False, "psi is not additive"
        if not inst.mor_equal(tr_hat(total), inst.add_mor(tr_hat(tr1), tr_hat(tr2))):
            return False, "tr_hat is not additive"
        cancel = add_triples(tr1, negate_triple(tr1))
        if not psi(cancel).payload.is_zero():
            return False, "tr + (-tr) does not vanish under psi"
        if not tr_hat(cancel).payload.is_zero():
            return False, "tr + (-tr) does not vanish under tr_hat"
        zt = zero_triple(inst, x, x)
        with_zero = add_triples(tr1, zt)
        if not inst.mor_equal(psi(with_zero), psi(tr1)):
            return False, "zero triple changes psi"
        if not inst.mor_equal(tr_hat(with_zero), tr_hat(tr1)):
            return False, "zero triple changes tr_hat"
        return True, ""

    return gen, check


@family("main2.2", "main2.2", "bilinearity of the trace pairing", MATRIX, group="matrix")
def main2_2(key):
    def gen(cfg, rng):
        inst = _inst(key, cfg)
        x = gen_object(inst, rng, cfg.max_dim, cfg.max_degree)
        y = gen_object(inst, rng, cfg.max_dim, cfg.max_degree)
        tr1 = gen_triple(inst, x, y, rng, cfg.max_dim, cfg.max_degree)
        tr2 = gen_triple(inst, x, y, rng, cfg.max_dim, cfg.max_degree)
        g1 = gen_matrix_mor(inst, y, x, rng)
        g2 = gen_matrix_mor(inst, y, x, rng)
        return {**_triple_inputs(inst, "", tr1, suffix="1"),
                **_triple_inputs(inst, "", tr2, suffix="2"),
                "x": inst.identity(x), "y": inst.identity(y), "g1": g1, "g2": g2}

    def check(inputs):
        inst = get_instance(inputs["t1"].instance_id)
        x, y = inputs["x"].source, inputs["y"].source
        tr1 = _triple_from_inputs(inputs, "", x, y, suffix="1")
        tr2 = _triple_from_inputs(inputs, "", x, y, suffix="2")
        g1, g2 = inputs["g1"], inputs["g2"]
        left = trace_pairing(add_triples(tr1, tr2), g1)
        right = inst.add_mor(trace_pairing(tr1, g1), trace_pairing(tr2, g1))
        if not inst.mor_equal(left, right):
            return False, "pairing not additive in the first slot"
        left = trace_pairing(tr1, inst.add_mor(g1, g2))
        right = inst.add_mor(trace_pairing(tr1, g1), trace_pairing(tr1, g2))
        if not inst.mor_equal(left, right):
            return False, "pairing not additive in the second slot"
        return True, ""

    return gen, check


@family("whtr.3", "whtr.3", "multiplicativity of psi and tr_hat under the triple tensor",
        ("supervect", "graded"), group="multiplicative")
def whtr_3(key):
    def gen(cfg, rng):
        inst = _inst(key, cfg)
        dim_cap = min(cfg.max_dim, 3)
        x1 = gen_object(inst, rng, dim_cap, cfg.max_degree)
        x2 = gen_object(inst, rng, dim_cap, cfg.max_degree)
        tr1 = gen_triple(inst, x1, x1, rng, dim_cap, cfg.max_degree)
        tr2 = gen_triple(inst, x2, x2, rng, dim_cap, cfg.max_degree)
        return {**_triple_inputs(inst, "", tr1, suffix="1"),
                **_triple_inputs(inst, "", tr2, suffix="2"),
                "x1": inst.identity(x1), "x2": inst.identity(x2)}

    def check(inputs):
        inst = get_instance(inputs["t1"].instance_id)
        x1, x2 = inputs["x1"].source, inputs["x2"].source
        tr1 = _triple_from_inputs(inputs, "", x1, x1, suffix="1")
        tr2 = _triple_from_inputs(inputs, "", x2, x2, suffix="2")
        tt = tensor_triples(tr1, tr2)
        if not inst.mor_equal(psi(tt), inst.tensor(psi(tr1), psi(tr2))):
            return False, "psi is not multiplicative"
        if not inst.mor_equal(tr_hat(tt), inst.compose(tr_hat(tr1), tr_hat(tr2))):
            return False, "tr_hat is not multiplicative"
        return True, ""

    return gen, check


@family("main2.3", "main2.3", "multiplicativity of the trace pairing",
        ("supervect", "graded"), group="multiplicative")
def main2_3(key):
    def gen(cfg, rng):
        inst = _inst(key, cfg)
        dim_cap = min(cfg.max_dim, 3)
        x1, y1, x2, y2 = [gen_object(inst, rng, dim_cap, cfg.max_degree) for _ in range(4)]
        tr1 = gen_triple(inst, x1, y1, rng, dim_cap, cfg.max_degree)
        tr2 = gen_triple(inst, x2, y2, rng, dim_cap, cfg.max_degree)
        g1 = gen_matrix_mor(inst, y1, x1, rng)
        g2 = gen_matrix_mor(inst, y2, x2, rng)
        return {**_triple_inputs(inst, "", tr1, suffix="1"),
                **_triple_inputs(inst, "", tr2, suffix="2"),
                "x1": inst.identity(x1), "y1": inst.identity(y1),
                "x2": inst.identity(x2), "y2": inst.identity(y2),
                "g1": g1, "g2": g2}

    def check(inputs):
        inst = get_instance(inputs["t1"].instance_id)
        x1, y1, x2, y2 = (inputs[k].source for k in ("x1", "y1", "x2", "y2"))
        tr1 = _triple_from_inputs(inputs, "", x1, y1, suffix="1")
        tr2 = _triple_from_inputs(inputs, "", x2, y2, suffix="2")
        g1, g2 = inputs["g1"], inputs["g2"]
        lhs = trace_pairing(tensor_triples(tr1, tr2), inst.tensor(g1, g2))
        rhs = inst.compose(trace_pairing(tr1, g1), trace_pairing(tr2, g2))
        return inst.mor_equal(lhs, rhs), "tr(f1(x)f2, g1(x)g2) != tr(f1,g1).tr(f2,g2)"

    return gen, check


@family("vect.rank", "vect.1", "the image of phi is every (finite-rank) linear map",
        ("finvect",))
def vect_rank(key):
    def gen(cfg, rng):
        inst = _inst(key, cfg)
        x = gen_object(inst, rng, cfg.max_dim, 0)
        y = gen_object(inst, rng, cfg.max_dim, 0)
        return {"f": gen_matrix_mor(inst, x, y, rng)}

    def check(inputs):
        f = inputs["f"]
        inst = get_instance(key)
        t = phi_inv(f)
        if not inst.mor_equal(phi(t, f.source), f):
            return False, "phi . phi_inv is not the identity"
        # rank-one images: a basis element of Y (x) X* maps to a matrix unit
        nx, ny = len(f.source.payload), len(f.target.payload)
        if nx and ny:
            i, j = 0, nx - 1
            target = inst.tensor_obj(f.target, inst.dual_obj(f.source))
            basis = inst.mor(inst.unit_object(), target,
                             RatMatrix(ny * nx, 1, {(i * nx + j, 0): 1}))
            unit_matrix = inst.mor(f.source, f.target, RatMatrix(ny, nx, {(i, j): 1}))
            if not inst.mor_equal(phi(basis, f.source), unit_matrix):
                return False, "phi of a basis tensor is not a matrix unit"
        return True, ""

    return gen, check


@family("vect.trace", "vect.3", "the categorical trace agrees with the diagonal sum",
        ("finvect",))
def vect_trace(key):
    def gen(cfg, rng):
        inst = _inst(key, cfg)
        x = gen_object(inst, rng, min(cfg.max_dim + 1, 5), 0)
        t = gen_matrix_mor(inst, inst.unit_object(),
                           inst.tensor_obj(x, inst.dual_obj(x)), rng)
        return {"t": t, "x": inst.identity(x)}

    def check(inputs):
        inst = get_instance(key)
        t, x = inputs["t"], inputs["x"].source
        got = inst.scalar_value(tr_hat(alpha(t, x)))
        want = inst.classical_trace(phi(t, x))
        return got == want, f"categorical {rat_str(got)} != classical {rat_str(want)}"

    return gen, check


@family("dual.bijection", "dual.1",
        "on dualizable objects psi is a bijection (witnessed section)", MATRIX)
def dual_bijection(key):
    def gen(cfg, rng):
        inst = _inst(key, cfg)
        x = gen_object(inst, rng, cfg.max_dim, cfg.max_degree)
        y = gen_object(inst, rng, cfg.max_dim, cfg.max_degree)
        return {"f": gen_matrix_mor(inst, x, y, rng), "x": inst.identity(x)}

    def check(inputs):
        f = inputs["f"]
        x = inputs["x"].source
        inst = get_instance(f.instance_id)
        xd, ev, coev = inst.dual_data(x)
        idx = inst.identity(x)
        idxd = inst.identity(xd)
        zig1 = inst.compose(inst.tensor(idx, ev), inst.tensor(coev, idx))
        zig2 = inst.compose(inst.tensor(ev, idxd), inst.tensor(idxd, coev))
        if not inst.mor_equal(zig1, idx) or not inst.mor_equal(zig2, idxd):
            return False, "zigzag identities fail"
        back = psi(alpha(phi_inv(f), x))
        return inst.mor_equal(back, f), "psi . alpha . phi_inv is not the identity"

    return gen, check


def _gen_oracle_object(inst, rng: Stream, cfg: SuiteConfig, *near):
    """The zero object one time in five; otherwise up to max_dim degrees drawn
    in random order from those of `near` and of a fresh object, so matrices
    between related objects have support at mixed degrees."""
    if rng.chance(1, 5):
        return inst.zero_object()
    pool = [d for x in near for d in x.payload]
    pool += gen_object(inst, rng, cfg.max_dim, cfg.max_degree).payload
    return inst.obj(rng.shuffle(pool)[: rng.randint(1, cfg.max_dim)])


@family("kernel.oracle", "kernel.oracle",
        "contraction kernels of psi, pre_compose and post_compose"
        " equal the whiskered reference composites, and the switching"
        " s_{X,Z} equals (id_Z (x) theta_X) . c_{X,Z}", MATRIX)
def kernel_oracle(key):
    def gen(cfg, rng):
        inst = _inst(key, cfg)
        x = _gen_oracle_object(inst, rng, cfg)
        y = _gen_oracle_object(inst, rng, cfg, x)
        z = inst.dual_obj(_gen_oracle_object(inst, rng, cfg, x, y))
        w = _gen_oracle_object(inst, rng, cfg, x)
        v = _gen_oracle_object(inst, rng, cfg, y)
        unit = inst.unit_object()
        return {"t": gen_matrix_mor(inst, unit, inst.tensor_obj(y, z), rng),
                "b": gen_matrix_mor(inst, inst.tensor_obj(z, x), unit, rng),
                "z": inst.identity(z),
                "f": gen_matrix_mor(inst, w, x, rng),
                "g": gen_matrix_mor(inst, y, v, rng)}

    def check(inputs):
        inst = get_instance(inputs["t"].instance_id)
        f, g = inputs["f"], inputs["g"]
        tr = _triple_from_inputs(inputs, "", f.target, g.source)
        if not inst.mor_equal(psi(tr), psi_composite(tr)):
            return False, "psi kernel differs from the whiskered composite"
        if not inst.mor_equal(pre_compose(tr, f).b, pre_compose_composite(tr, f).b):
            return False, "pre_compose kernel differs from the whiskered composite"
        if not inst.mor_equal(post_compose(g, tr).t, post_compose_composite(g, tr).t):
            return False, "post_compose kernel differs from the whiskered composite"
        x, z = tr.dom, tr.z
        balanced = inst.compose(inst.tensor(inst.identity(z), inst.twist_theta(x)),
                                inst.braiding_c(x, z))
        if not inst.mor_equal(inst.switching(x, z), balanced):
            return False, "switching differs from (id (x) theta) . c"
        return True, ""

    return gen, check


@family("balanced.relations", "bal.relations", "both braiding coherence relations hold exactly")
def bal_relations(_key):
    def gen(cfg, rng):
        inst = _inst("graded", cfg)
        xs = [gen_object(inst, rng, min(cfg.max_dim, 3), cfg.max_degree) for _ in range(3)]
        return {"x": inst.identity(xs[0]), "y": inst.identity(xs[1]), "z": inst.identity(xs[2])}

    def check(inputs):
        inst = get_instance(inputs["x"].instance_id)
        x, y, z = (inputs[k].source for k in "xyz")
        idx, idy, idz = inst.identity(x), inst.identity(y), inst.identity(z)
        lhs = inst.braiding_c(x, inst.tensor_obj(y, z))
        rhs = inst.compose(inst.tensor(idy, inst.braiding_c(x, z)),
                           inst.tensor(inst.braiding_c(x, y), idz))
        if not inst.mor_equal(lhs, rhs):
            return False, "braiding relation (first) fails"
        lhs = inst.braiding_c(inst.tensor_obj(x, y), z)
        rhs = inst.compose(inst.tensor(inst.braiding_c(x, z), idy),
                           inst.tensor(idx, inst.braiding_c(y, z)))
        if not inst.mor_equal(lhs, rhs):
            return False, "braiding relation (second) fails"
        return True, ""

    return gen, check


@family("balanced.twist", "bal.twist",
        "theta on a tensor equals the double braiding times the twists")
def bal_twist(_key):
    def gen(cfg, rng):
        inst = _inst("graded", cfg)
        x = gen_object(inst, rng, min(cfg.max_dim, 3), cfg.max_degree)
        y = gen_object(inst, rng, min(cfg.max_dim, 3), cfg.max_degree)
        return {"x": inst.identity(x), "y": inst.identity(y)}

    def check(inputs):
        inst = get_instance(inputs["x"].instance_id)
        x, y = inputs["x"].source, inputs["y"].source
        lhs = inst.twist_theta(inst.tensor_obj(x, y))
        rhs = inst.compose(
            inst.braiding_c(y, x),
            inst.compose(inst.braiding_c(x, y),
                         inst.tensor(inst.twist_theta(x), inst.twist_theta(y))),
        )
        return inst.mor_equal(lhs, rhs), "twist equation fails"

    return gen, check


@family("balanced.crossing", "bal.crossing", "unit-valued boxes slide over and under crossings")
def bal_crossing(_key):
    def gen(cfg, rng):
        inst = _inst("graded", cfg)
        v = gen_object(inst, rng, min(cfg.max_dim, 3), cfg.max_degree)
        w = gen_object(inst, rng, min(cfg.max_dim, 3), cfg.max_degree)
        f = gen_matrix_mor(inst, v, inst.unit_object(), rng)
        g = gen_matrix_mor(inst, inst.unit_object(), w, rng)
        return {"f": f, "g": g, "v": inst.identity(v), "w": inst.identity(w)}

    def check(inputs):
        inst = get_instance(inputs["f"].instance_id)
        v, w = inputs["v"].source, inputs["w"].source
        f, g = inputs["f"], inputs["g"]
        idv, idw = inst.identity(v), inst.identity(w)
        over = inst.compose(inst.tensor(idw, f), inst.braiding_c(v, w))
        flat = inst.tensor(f, idw)
        under = inst.compose(inst.tensor(idw, f), inst.braiding_c_inv(w, v))
        if not (inst.mor_equal(over, flat) and inst.mor_equal(flat, under)):
            return False, "a map into the unit does not slide through crossings"
        over = inst.compose(inst.braiding_c(v, w), inst.tensor(idv, g))
        flat = inst.tensor(g, idv)
        under = inst.compose(inst.braiding_c_inv(w, v), inst.tensor(idv, g))
        if not (inst.mor_equal(over, flat) and inst.mor_equal(flat, under)):
            return False, "a map out of the unit does not slide through crossings"
        return True, ""

    return gen, check


def _gen_graded_endo_triples(cfg, rng):
    """The inputs of the three graded controls: two endomorphism triples
    with guaranteed mixed-degree support.  Each thickening object carries
    the negated degrees of its X, so t has nonzero degree-0 components at
    every degree of X and convention errors in the crossings cannot hide
    behind vanishing blocks."""
    inst = _inst("graded", cfg)
    deg_cap = max(1, min(cfg.max_degree, 2))
    out = {}
    for name, x_key in (("a", "x1"), ("b", "x2")):
        degs = sorted(
            rng.choice([d for d in range(-deg_cap, deg_cap + 1) if d != 0])
            for _ in range(rng.randint(1, 2))
        )
        x = inst.obj(degs)
        z = inst.obj([-d for d in degs])
        unit = inst.unit_object()
        t = gen_matrix_mor(inst, unit, inst.tensor_obj(x, z), rng, density=100)
        b = gen_matrix_mor(inst, inst.tensor_obj(z, x), unit, rng, density=100)
        out[x_key] = inst.identity(x)
        out.update(_triple_inputs(inst, name, ThickTriple(dom=x, cod=x, z=z, t=t, b=b)))
    return out


def _graded_endo_triples(inputs):
    """The instance and the two triples of `_gen_graded_endo_triples`."""
    x1, x2 = inputs["x1"].source, inputs["x2"].source
    return (get_instance(inputs["at"].instance_id),
            _triple_from_inputs(inputs, "a", x1, x1), _triple_from_inputs(inputs, "b", x2, x2))


def _switching_control(switch: str, detail: str):
    """tr_hat multiplicativity with the method `switch` of the graded
    instance in place of the balanced switching.  ok means the identity
    HOLDS; a control suite passes if some trial returns ok = False."""
    def check(inputs):
        inst, tr1, tr2 = _graded_endo_triples(inputs)

        def tr_hat_with(tr: ThickTriple):
            return inst.compose(tr.b, inst.compose(getattr(inst, switch)(tr.dom, tr.z), tr.t))

        lhs = tr_hat_with(tensor_triples(tr1, tr2))
        rhs = inst.compose(tr_hat_with(tr1), tr_hat_with(tr2))
        return inst.mor_equal(lhs, rhs), detail

    return _gen_graded_endo_triples, check


@family("balanced.negative-control", "whtr.3",
        "searches for a plain degree-swap tr_hat multiplicativity"
        " counterexample; none exists, since the balanced switching"
        " acts as the plain swap on all degree-0 vectors, so this"
        " suite reports FAIL (see the Notes of docs/traceability.md)",
        expect_counterexample=True)
def negative_control(_key):
    return _switching_control("plain_swap", "plain-swap tr_hat multiplicativity violated")


@family("balanced.twistless-control", "whtr.3",
        "dropping only the twist (switching := braiding) breaks"
        " multiplicativity: the balanced hypothesis is necessary",
        expect_counterexample=True, pinned="twistless_counterexample.json")
def twistless_control(_key):
    return _switching_control("braiding_c", "twistless tr_hat multiplicativity violated")


def tensor_triples_uniform_crossing(tr1: ThickTriple, tr2: ThickTriple) -> ThickTriple:
    """The wrong convention: both crossings read as the over-crossing."""
    inst = get_instance(tr1.instance_id)
    z = inst.tensor_obj(tr1.z, tr2.z)
    chi_t = inst.braiding_c(tr1.z, tr2.cod)
    t = inst.compose(
        inst.tensor(inst.tensor(inst.identity(tr1.cod), chi_t), inst.identity(tr2.z)),
        inst.tensor(tr1.t, tr2.t),
    )
    chi_b = inst.braiding_c(tr2.z, tr1.dom)
    b = inst.compose(
        inst.tensor(tr1.b, tr2.b),
        inst.tensor(inst.tensor(inst.identity(tr1.z), chi_b), inst.identity(tr2.dom)),
    )
    return ThickTriple(dom=inst.tensor_obj(tr1.dom, tr2.dom),
                       cod=inst.tensor_obj(tr1.cod, tr2.cod), z=z, t=t, b=b)


@family("graded.crossing-regression", "whtr.3",
        "reading both crossings the same way breaks psi"
        " multiplicativity at mixed degrees (pinned regression)",
        expect_counterexample=True, pinned="crossing_counterexample.json")
def crossing_regression(_key):
    def check(inputs):
        inst, tr1, tr2 = _graded_endo_triples(inputs)
        wrong = tensor_triples_uniform_crossing(tr1, tr2)
        ok = inst.mor_equal(psi(wrong), inst.tensor(psi(tr1), psi(tr2)))
        return ok, "uniform-crossing tensor breaks psi multiplicativity"

    return _gen_graded_endo_triples, check


@family("bord.thick", "bord.1", "psi of every constructible triple is a genuine bordism")
def bord_thick(_key):
    def gen(cfg, rng):
        inst = get_instance("rbord1")
        x, y = _gen_same_parity(inst, rng, cfg, "x", "y")
        tr = gen_triple(inst, x, y, rng, cfg.max_dim, cfg.max_degree)
        return {**_triple_inputs(inst, "", tr), "x": inst.identity(x), "y": inst.identity(y)}

    def check(inputs):
        tr = _triple_from_inputs(inputs, "", inputs["x"].source, inputs["y"].source)
        value = psi(tr)
        if not isinstance(value.payload, Bord):
            return False, "psi produced an isometry"
        if any(l <= 0 for (_a, _b, l) in value.payload.arcs):
            return False, "psi produced a thin arc"
        return True, ""

    return gen, check


@family("bord.cuts", "bord.2", "independent cuts agree and are connected by the collar slide")
def bord_cuts(_key):
    def gen(cfg, rng):
        inst = get_instance("rbord1")
        x = gen_point_set(inst, rng, rng.randint(1, cfg.max_dim), prefix="x")
        sigma = gen_bordism(inst, x, x, rng)
        d1 = rng.randint(2, 9)
        n1 = rng.randint(1, d1 - 1)
        r1 = rat(n1, d1)
        r2 = r1 + rat(rng.randint(1, 3), 37)
        return {"sigma": sigma, "r1": r1, "r2": r2}

    def check(inputs):
        inst = get_instance("rbord1")
        sigma, r1, r2 = inputs["sigma"], inputs["r1"], inputs["r2"]
        c1 = inst.cut_thickener(sigma, r1)
        c2 = inst.cut_thickener(sigma, r2)
        if not inst.mor_equal(tr_hat(c1), tr_hat(c2)):
            return False, "two cuts give different traces"
        if not inst.mor_equal(psi(c1), sigma) or not inst.mor_equal(psi(c2), sigma):
            return False, "re-gluing a cut does not recover the bordism"
        w = inst.cut_witness(sigma, r1, r2)
        if not w.holds():
            return False, "connecting collar is not a valid slide"
        return True, ""

    return gen, check


@family("bord.glue", "bord.3", "the categorical trace is the glued-up closed bordism")
def bord_glue(_key):
    def gen(cfg, rng):
        inst = get_instance("rbord1")
        x = gen_point_set(inst, rng, rng.randint(1, cfg.max_dim), prefix="x")
        sigma = gen_bordism(inst, x, x, rng)
        r = rat(rng.randint(1, 9), 10)
        return {"sigma": sigma, "r": r}

    def check(inputs):
        inst = get_instance("rbord1")
        sigma, r = inputs["sigma"], inputs["r"]
        lhs = inst.glue_trace(sigma)
        rhs = tr_hat(inst.cut_thickener(sigma, r))
        return inst.mor_equal(lhs, rhs), "glue_trace != tr_hat . cut_thickener"

    return gen, check


@family("sec2.partition", "sec2.partition",
        "the closed evaluation equals the trace pairing of the parts")
def partition(_key):
    def gen(cfg, rng):
        inst = get_instance("rbord1")
        d = rng.choice([2, 2, 3])
        n = rng.randint(1, 3 if d == 2 else 2)
        x = gen_point_set(inst, rng, n, prefix="x")
        y = gen_point_set(inst, rng, n, prefix="y")
        s1 = gen_bordism(inst, x, y, rng, integer=True, directed=True, max_circles=1)
        s2 = gen_bordism(inst, y, x, rng, integer=True, directed=True, max_circles=0)
        ent = {}
        for i in range(d):
            for j in range(d):
                if rng.chance(4, 5):
                    ent[(i, j)] = rng.fraction()
        vect = get_instance("finvect")
        a = vect.mor(vect.space(d), vect.space(d), RatMatrix(d, d, ent))
        return {"s1": s1, "s2": s2, "a": a}

    def check(inputs):
        closed, paired = field_theory(inputs["a"].payload).partition(inputs["s1"], inputs["s2"])
        return closed == paired, f"partition value {rat_str(closed)} != pairing {rat_str(paired)}"

    return gen, check


@functools.lru_cache(maxsize=None)
def _corpus_files() -> tuple:
    root = resources.files("traced").joinpath("data/corpus")
    return tuple(sorted(p.name for p in root.iterdir() if p.name.endswith(".diag")))


@family("dsl.corpus", "dsl.corpus", "golden corpus round-trips and all program assertions hold",
        data_trials=lambda cfg: len(_corpus_files()))
def dsl_corpus(_key):
    def data_gen(cfg, trial):
        name = _corpus_files()[trial]
        text = resources.files("traced").joinpath(f"data/corpus/{name}").read_text()
        return {"name": name, "text": text}

    def check(inputs):
        from .dsl import parse, pretty, run_text

        text = inputs["text"]
        prog = parse(text)
        if pretty(prog) != text:
            return False, "pretty . parse is not the identity"
        report = run_text(text)
        if not report.ok:
            return False, "an assertion inside the program failed"
        return True, ""

    return data_gen, check


# ---------------------------------------------------------------------------
# registry and runner
# ---------------------------------------------------------------------------


def _registry() -> dict:
    ordered = []
    for _group, run in itertools.groupby(_SUITES, lambda entry: entry[0]):
        ordered += sorted(run, key=lambda entry: entry[1])  # stable: key-major
    return {suite.suite_id: suite for _group, _pos, suite in ordered}


REGISTRY = _registry()


def run_one(suite: Suite, cfg: SuiteConfig) -> SuiteResult:
    """Run the trials of `suite`.  A trial's inputs come from `data_gen`
    when the suite has one, else from `gen` on the trial's own stream.
    Pinned inputs are checked first and do not count as trials."""
    start = time.perf_counter()
    pinned_ok = True
    if suite.pinned is not None:
        text = resources.files("traced").joinpath(f"data/{suite.pinned}").read_text()
        ok, _detail = suite.check(serde.load_inputs(json.loads(text)["inputs"]))
        pinned_ok = not ok  # the stored counterexample must still violate

    trials = cfg.trials if suite.data_gen is None else suite.data_trials(cfg)
    violations = 0
    counterexample = None
    for trial in range(trials):
        if suite.data_gen is None:
            inputs = suite.gen(cfg, trial_stream(cfg.seed, suite.suite_id, trial))
        else:
            inputs = suite.data_gen(cfg, trial)
        ok, detail = suite.check(inputs)
        if not ok:
            violations += 1
            if counterexample is None:
                counterexample = {"trial": trial, "detail": detail,
                                  "inputs": serde.dump_inputs(inputs)}

    if suite.expect_counterexample:
        passed = violations >= 1 and pinned_ok
        failures, found = (0 if passed else 1), violations
    else:
        passed, failures, found = violations == 0, violations, 0
    return SuiteResult(suite.suite_id, suite.tag, trials, failures, passed,
                       suite.expect_counterexample, found, counterexample,
                       time.perf_counter() - start)


def select_suites(cfg: SuiteConfig) -> list:
    """The suites the patterns of cfg.suites name, each once, in order of first
    appearance; a pattern that matches nothing raises KeyError."""
    wanted = {}
    for pattern in cfg.suites:
        if pattern == "all":
            matches = list(REGISTRY)
        elif pattern in REGISTRY:
            matches = [pattern]
        else:
            matches = [sid for sid in REGISTRY if sid.startswith(pattern)]
        if not matches:
            raise KeyError(f"no suite matches {pattern!r}")
        wanted.update(dict.fromkeys(matches))
    return [REGISTRY[sid] for sid in wanted]


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    results = [run_one(s, cfg) for s in select_suites(cfg)]
    return SuiteReport(config=cfg, results=results)


def replay_entry(suite_id: str, inputs_data: dict):
    """Re-run one stored counterexample; returns (reproduced, detail)."""
    suite = REGISTRY[suite_id]
    inputs = serde.load_inputs(inputs_data)
    ok, detail = suite.check(inputs)
    return (not ok), detail
