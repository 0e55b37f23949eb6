"""Generator contracts: determinism, shape invariants, boundary matchings."""

import pytest

from traced import get_instance
from traced.gens import (
    Stream,
    gen_bordism,
    gen_matrix_mor,
    gen_morphism,
    gen_object,
    gen_point_set,
    gen_triple,
    trial_stream,
)
from traced.matrices import RatMatrix

rb = get_instance("rbord1")
fv = get_instance("finvect")
sv = get_instance("supervect")
g2 = get_instance("graded(q=2)")


def reference_matrix_mor(inst, x, y, rng, density=70):
    """gen_matrix_mor's contract: per entry in row-major order, a degree
    match draws rng.chance(density, 100) and, if it holds, rng.fraction()."""
    ent = {}
    for i, a in enumerate(y.payload):
        for j, b in enumerate(x.payload):
            if a == b and rng.chance(density, 100):
                ent[(i, j)] = rng.fraction()
    return inst.mor(x, y, RatMatrix(len(y.payload), len(x.payload), ent))


@pytest.mark.parametrize("inst", [fv, sv, g2], ids=lambda i: i.instance_id)
@pytest.mark.parametrize("density", [0, 30, 70, 100])
def test_gen_matrix_mor_draws_like_chance_then_fraction(inst, density):
    rng = trial_stream(9, f"matrix-mor-{density}", 0)
    for k in range(60):
        x = gen_object(inst, rng, 4, 2)
        y = gen_object(inst, rng, 4, 2)
        ref_rng = Stream(rng.state)
        f = gen_matrix_mor(inst, x, y, rng, density)
        assert f == reference_matrix_mor(inst, x, y, ref_rng, density)
        assert rng.state == ref_rng.state


def test_splitmix_reproducible():
    a = Stream(12345)
    b = Stream(12345)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_trial_streams_differ_across_trials_and_suites():
    xs = {trial_stream(42, "suite-a", t).next_u64() for t in range(50)}
    assert len(xs) == 50
    assert trial_stream(42, "suite-a", 0).next_u64() != trial_stream(42, "suite-b", 0).next_u64()


def test_same_seed_reproduces_values():
    r1 = trial_stream(42, "x", 3)
    r2 = trial_stream(42, "x", 3)
    for _ in range(20):
        assert r1.fraction() == r2.fraction()


def test_gen_bordism_is_perfect_matching():
    rng = trial_stream(1, "match", 0)
    for k in range(100):
        x = gen_point_set(rb, rng, 2, prefix="x")
        y = gen_point_set(rb, rng, 2, prefix="y")
        sigma = gen_bordism(rb, x, y, rng)
        assert sigma.payload.isometry is None
        endpoints = [e for (a, b, _l) in sigma.payload.arcs for e in (a, b)]
        assert len(endpoints) == len(set(endpoints)) == 4
        assert all(l > 0 for (_a, _b, l) in sigma.payload.arcs)


def test_gen_bordism_directed():
    rng = trial_stream(2, "directed", 0)
    x = gen_point_set(rb, rng, 3, prefix="x")
    y = gen_point_set(rb, rng, 3, prefix="y")
    sigma = gen_bordism(rb, x, y, rng, integer=True, directed=True)
    for (a, b, l) in sigma.payload.arcs:
        assert {a[0], b[0]} == {"in", "out"}
        assert l.denominator == 1 and l > 0


def test_gen_triple_satisfies_shape_invariants():
    rng = trial_stream(3, "shapes", 0)
    for inst in (fv, g2, rb):
        for k in range(50):
            if inst is rb:
                x = gen_point_set(inst, rng, 2, prefix="x")
                y = gen_point_set(inst, rng, 2, prefix="y")
            else:
                x = gen_object(inst, rng, 3, 2)
                y = gen_object(inst, rng, 3, 2)
            tri = gen_triple(inst, x, y, rng, 3, 2)
            unit = inst.unit_object()
            assert tri.t.source == unit
            assert tri.t.target == inst.tensor_obj(tri.cod, tri.z)
            assert tri.b.source == inst.tensor_obj(tri.z, tri.dom)
            assert tri.b.target == unit


def test_gen_morphism_degree_preserving():
    rng = trial_stream(4, "degrees", 0)
    for k in range(50):
        x = gen_object(g2, rng, 3, 3)
        y = gen_object(g2, rng, 3, 3)
        f = gen_morphism(g2, x, y, rng)
        for (i, j) in f.payload.entries:
            assert y.payload[i] == x.payload[j]
