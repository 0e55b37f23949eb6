import inspect

import pytest

from traced import (
    ThickTriple,
    add_triples,
    canonical_thickener,
    get_instance,
    hat_comp_witness,
    negate_triple,
    pad_thickener,
    post_compose,
    pre_compose,
    psi,
    rat,
    slide_pair,
    tensor_triples,
    tr_hat,
    trace_pairing,
    zero_triple,
)
from traced import thickened
from traced.errors import CapabilityMissing, DomainMismatch, NotEndo
from traced.gens import gen_endo_pair, gen_matrix_mor, gen_object, gen_triple, trial_stream
from traced.matrices import RatMatrix
from traced.thickened import (
    add_triples_composite,
    canonical_thickener_composite,
    hat_comp_witness_composite,
    post_compose_composite,
    pre_compose_composite,
    psi_composite,
)
from traced.vect import MatrixCategory

fv = get_instance("finvect")
sv = get_instance("supervect")
g2 = get_instance("graded(q=2)")
ALL = [fv, sv, g2, get_instance("rbord1")]
MATRIX = [fv, sv, g2]


def diagonal_triple(n):
    """X = Z = Q^n, t(1) = sum e_i (x) e_i, b the index pairing."""
    x = fv.space(n)
    unit = fv.unit_object()
    t = fv.mor(unit, fv.tensor_obj(x, x), RatMatrix(n * n, 1, {(i * n + i, 0): 1 for i in range(n)}))
    b = fv.mor(fv.tensor_obj(x, x), unit, RatMatrix(1, n * n, {(0, i * n + i): 1 for i in range(n)}))
    return ThickTriple(dom=x, cod=x, z=x, t=t, b=b)


def test_psi_of_diagonal_triple_is_identity():
    tri = diagonal_triple(2)
    assert psi(tri) == fv.identity(fv.space(2))
    assert fv.scalar_value(tr_hat(tri)) == 2


def test_zero_t_gives_zero():
    tri = diagonal_triple(2)
    zeroed = ThickTriple(dom=tri.dom, cod=tri.cod, z=tri.z,
                         t=fv.zero_mor(tri.t.source, tri.t.target), b=tri.b)
    assert psi(zeroed).payload.is_zero()
    assert tr_hat(zeroed).payload.is_zero()


def test_triple_shape_validation():
    tri = diagonal_triple(2)
    with pytest.raises(DomainMismatch):
        ThickTriple(dom=tri.dom, cod=tri.cod, z=fv.space(3), t=tri.t, b=tri.b)


def test_tr_hat_needs_endo():
    x, y = fv.space(2), fv.space(3)
    rng = trial_stream(1, "endo", 0)
    tri = gen_triple(fv, x, y, rng)
    with pytest.raises(NotEndo):
        tr_hat(tri)


def test_pre_compose_identity_is_same_representative():
    tri = diagonal_triple(3)
    again = pre_compose(tri, fv.identity(tri.dom))
    assert again == tri


def test_pre_post_compose_commute_with_psi():
    rng = trial_stream(2, "prepost", 0)
    for inst in MATRIX:
        for k in range(200):
            x = gen_object(inst, rng, 3, 2)
            y = gen_object(inst, rng, 3, 2)
            w = gen_object(inst, rng, 3, 2)
            tri = gen_triple(inst, x, y, rng, 3, 2)
            f = gen_matrix_mor(inst, w, x, rng)
            assert inst.mor_equal(psi(pre_compose(tri, f)), inst.compose(psi(tri), f))
            g = gen_matrix_mor(inst, y, w, rng)
            assert inst.mor_equal(psi(post_compose(g, tri)), inst.compose(g, psi(tri)))


def test_bordism_pre_compose_with_isometry_relabels():
    rb = get_instance("rbord1")
    sigma = rb.interval("x", "y", 3)
    tri = rb.cut_thickener(sigma, rat(1, 3))
    ren = rb.iso_mor(rb.points(["w"]), rb.points(["x"]), {"w": "x"})
    moved = pre_compose(tri, ren)
    assert moved.dom == rb.points(["w"])
    assert rb.mor_equal(psi(moved), rb.compose(sigma, ren))
    # lengths are untouched by the isometry action
    assert sorted(l for (_a, _b, l) in moved.b.payload.arcs) == sorted(
        l for (_a, _b, l) in tri.b.payload.arcs
    )


def test_slide_invariance_trivial_and_random():
    rng = trial_stream(3, "slides", 0)
    for inst in MATRIX:
        for k in range(100):
            x = gen_object(inst, rng, 3, 2)
            z = gen_object(inst, rng, 3, 2)
            z2 = gen_object(inst, rng, 3, 2)
            t = gen_matrix_mor(inst, inst.unit_object(), inst.tensor_obj(x, z), rng)
            bp = gen_matrix_mor(inst, inst.tensor_obj(z2, x), inst.unit_object(), rng)
            g = gen_matrix_mor(inst, z, z2, rng)
            w = slide_pair(t, bp, g, dom=x, cod=x)
            assert w.holds()
            assert inst.mor_equal(psi(w.left), psi(w.right))
            assert inst.mor_equal(tr_hat(w.left), tr_hat(w.right))


def test_hat_comp_witness_identity_thickener():
    x = fv.space(2)
    tri1 = canonical_thickener(fv.mor(x, x, [[1, 2], [3, 4]]))
    tri2 = canonical_thickener(fv.identity(x))
    w = hat_comp_witness(tri1, tri2)
    assert w.holds()
    assert fv.mor_equal(psi(w.left), psi(tri1))


def test_hat_comp_witness_random_rank_one():
    rng = trial_stream(4, "witness", 0)
    for k in range(200):
        u = gen_object(fv, rng, 3, 0)
        x = gen_object(fv, rng, 3, 0)
        y = gen_object(fv, rng, 3, 0)
        tri1 = gen_triple(fv, x, y, rng, 2, 0)
        tri2 = gen_triple(fv, u, x, rng, 2, 0)
        w = hat_comp_witness(tri1, tri2)
        assert w.holds()
        expected = fv.compose(psi(tri1), psi(tri2))
        assert fv.mor_equal(psi(w.left), expected)
        assert fv.mor_equal(psi(w.right), expected)


def test_bordism_witness_is_connecting_bordism():
    rb = get_instance("rbord1")
    rng = trial_stream(5, "bordwitness", 0)
    from traced.gens import gen_point_set

    for k in range(50):
        par = rng.randint(0, 1)
        u = gen_point_set(rb, rng, par + 2 * rng.randint(0, 1), prefix="u")
        x = gen_point_set(rb, rng, par + 2 * rng.randint(0, 1), prefix="x")
        y = gen_point_set(rb, rng, par + 2 * rng.randint(0, 1), prefix="y")
        tri1 = gen_triple(rb, x, y, rng, z_prefix="z")
        tri2 = gen_triple(rb, u, x, rng, z_prefix="w")
        w = hat_comp_witness(tri1, tri2)
        assert w.holds()


def test_trace_pairing_examples():
    x = fv.space(2)
    f = fv.mor(x, x, [[1, 2], [3, 4]])
    g = fv.mor(x, x, [[0, 1], [1, 0]])
    f_hat = canonical_thickener(f)
    assert fv.scalar_value(trace_pairing(f_hat, g)) == 5
    zero = fv.zero_mor(x, x)
    assert trace_pairing(f_hat, zero).payload.is_zero()
    with pytest.raises(DomainMismatch):
        trace_pairing(f_hat, fv.mor(fv.space(3), x, RatMatrix.zero(2, 3)))


def test_pairing_independent_of_hat_side():
    rng = trial_stream(6, "hatside", 0)
    for inst in MATRIX:
        for k in range(100):
            x = gen_object(inst, rng, 3, 2)
            y = gen_object(inst, rng, 3, 2)
            f_hat = gen_triple(inst, x, y, rng, 3, 2)
            g_hat = gen_triple(inst, y, x, rng, 3, 2)
            lhs = trace_pairing(f_hat, psi(g_hat))
            rhs = tr_hat(post_compose(psi(f_hat), g_hat))
            assert inst.mor_equal(lhs, rhs)


def test_additive_structure():
    rng = trial_stream(7, "additive", 0)
    for inst in MATRIX:
        for k in range(100):
            x, tr1 = gen_endo_pair(inst, rng, 3, 2)
            tr2 = gen_triple(inst, x, x, rng, 3, 2)
            total = add_triples(tr1, tr2)
            assert inst.mor_equal(psi(total), inst.add_mor(psi(tr1), psi(tr2)))
            assert inst.mor_equal(tr_hat(total), inst.add_mor(tr_hat(tr1), tr_hat(tr2)))
            cancel = add_triples(tr1, negate_triple(tr1))
            assert psi(cancel).payload.is_zero()
            assert tr_hat(cancel).payload.is_zero()
            zt = zero_triple(inst, x, x)
            assert inst.mor_equal(psi(add_triples(tr1, zt)), psi(tr1))


def test_add_triples_requires_capability():
    rb = get_instance("rbord1")
    rng = trial_stream(8, "nocap", 0)
    x, tri = gen_endo_pair(rb, rng)
    with pytest.raises(CapabilityMissing):
        add_triples(tri, tri)
    with pytest.raises(CapabilityMissing):
        tensor_triples(tri, tri)
    not_additive = "instance 'rbord1' is not additive"
    with pytest.raises(CapabilityMissing, match=not_additive):
        negate_triple(tri)
    with pytest.raises(CapabilityMissing, match=not_additive):
        zero_triple(rb, x, x)
    with pytest.raises(CapabilityMissing, match=not_additive):
        pad_thickener(tri, x, tri.b)
    # the missing structure is reported before a dom/cod mismatch
    other = rb.cut_thickener(rb.interval("p", "q", 2), rat(1, 2))
    with pytest.raises(CapabilityMissing, match=not_additive):
        add_triples(tri, other)


def test_pad_thickener_invisible():
    rng = trial_stream(9, "pad", 0)
    for inst in MATRIX:
        for k in range(100):
            x, tri = gen_endo_pair(inst, rng, 3, 2)
            w = gen_object(inst, rng, 3, 2)
            junk = gen_matrix_mor(inst, inst.tensor_obj(w, x), inst.unit_object(), rng)
            padded = pad_thickener(tri, w, junk)
            assert inst.mor_equal(psi(padded), psi(tri))
            assert inst.mor_equal(tr_hat(padded), tr_hat(tri))


def test_tensor_triples_multiplicative_supervect():
    rng = trial_stream(10, "smult", 0)
    for k in range(200):
        x1, tr1 = gen_endo_pair(sv, rng, 3, 1)
        x2, tr2 = gen_endo_pair(sv, rng, 3, 1)
        tt = tensor_triples(tr1, tr2)
        assert sv.mor_equal(psi(tt), sv.tensor(psi(tr1), psi(tr2)))
        assert sv.mor_equal(tr_hat(tt), sv.compose(tr_hat(tr1), tr_hat(tr2)))


def test_tensor_unit_triple_neutral():
    unit = g2.unit_object()
    one = g2.mor(unit, unit, [[1]])
    unit_triple = ThickTriple(dom=unit, cod=unit, z=unit, t=one, b=one)
    rng = trial_stream(11, "unit-tensor", 0)
    x, tri = gen_endo_pair(g2, rng, 3, 2)
    tt = tensor_triples(tri, unit_triple)
    assert g2.mor_equal(psi(tt), psi(tri))


def test_supervect_sign_bug_is_caught():
    """Mutation test: dropping the Koszul sign on the inverse-braiding
    crossing used inside the triple tensor must break multiplicativity."""

    class BuggedSuper(type(sv)):
        instance_id = "supervect"

        def braiding_c_inv(self, x, y):
            return self._swap_matrix(y, x, lambda b, a: rat(1))

    bugged = BuggedSuper()
    odd = sv.space(0, 1)
    unit = sv.unit_object()
    t = sv.mor(unit, sv.tensor_obj(odd, odd), [[1]])
    b = sv.mor(sv.tensor_obj(odd, odd), unit, [[1]])
    tri = ThickTriple(dom=odd, cod=odd, z=odd, t=t, b=b)

    good = tensor_triples(tri, tri)
    assert sv.mor_equal(tr_hat(good), sv.compose(tr_hat(tri), tr_hat(tri)))

    import traced.core as core

    core._REGISTRY["supervect"] = bugged
    try:
        bad = tensor_triples(tri, tri)
        assert not sv.mor_equal(tr_hat(bad), sv.compose(tr_hat(tri), tr_hat(tri)))
    finally:
        core._REGISTRY["supervect"] = sv


def test_canonical_thickener_round_trip():
    rng = trial_stream(12, "canon", 0)
    for inst in MATRIX:
        for k in range(100):
            x = gen_object(inst, rng, 4, 2)
            y = gen_object(inst, rng, 4, 2)
            f = gen_matrix_mor(inst, x, y, rng)
            assert inst.mor_equal(psi(canonical_thickener(f)), f)


@pytest.mark.parametrize("inst", MATRIX, ids=lambda i: i.instance_id)
def test_canonical_thickener_at_the_zero_object(inst):
    """f: 0 -> 0, 0 -> Y and Y -> 0 thicken; psi recovers f and the trace
    of the endomorphism is the classical trace, 0."""
    zero = inst.zero_object()
    y = gen_object(inst, trial_stream(12, "canon-zero", 0), 3, 2)
    for (src, tgt) in ((zero, zero), (zero, y), (y, zero)):
        f = inst.zero_mor(src, tgt)
        tri = canonical_thickener(f)
        assert (tri.dom, tri.cod) == (src, tgt)
        assert inst.mor_equal(psi(tri), f)
        if src == tgt:
            assert inst.scalar_value(tr_hat(tri)) == inst.classical_trace(f) == 0


# -- contraction kernels against the whiskered reference ----------------------


def assert_kernels_match_reference(inst, tri, rng):
    """Every contraction kernel returns the component its reference
    composite returns, with f: W -> dom and g: cod -> V drawn at random: psi,
    pre_compose and post_compose on tri; canonical_thickener on f;
    add_triples of tri with itself and with the canonical thickener of
    psi(tri); and hat_comp_witness of tri and the canonical thickener of f."""
    assert inst.mor_equal(psi(tri), psi_composite(tri))
    w = gen_object(inst, rng, 3, 2)
    f = gen_matrix_mor(inst, w, tri.dom, rng)
    assert pre_compose(tri, f).b == pre_compose_composite(tri, f)
    v = gen_object(inst, rng, 3, 2)
    g = gen_matrix_mor(inst, tri.cod, v, rng)
    assert post_compose(g, tri).t == post_compose_composite(g, tri)
    f_hat = canonical_thickener(f)
    assert f_hat.t == canonical_thickener_composite(f, f_hat.z)
    summand = canonical_thickener(psi(tri))
    for other in (tri, summand):
        assert add_triples(tri, other) == add_triples_composite(tri, other)
    assert hat_comp_witness(tri, f_hat).g == hat_comp_witness_composite(tri, f_hat)


def random_triple(inst, x, y, z, rng):
    unit = inst.unit_object()
    t = gen_matrix_mor(inst, unit, inst.tensor_obj(y, z), rng, density=100)
    b = gen_matrix_mor(inst, inst.tensor_obj(z, x), unit, rng, density=100)
    return ThickTriple(dom=x, cod=y, z=z, t=t, b=b)


def test_kernels_with_zero_thickening_object():
    rng = trial_stream(13, "kernel-zero-z", 0)
    for inst in MATRIX:
        x, y = gen_object(inst, rng, 3, 2), gen_object(inst, rng, 3, 2)
        tri = random_triple(inst, x, y, inst.zero_object(), rng)
        assert psi(tri) == inst.zero_mor(x, y)
        assert_kernels_match_reference(inst, tri, rng)


def test_kernels_with_zero_domain():
    rng = trial_stream(14, "kernel-zero-x", 0)
    for inst in MATRIX:
        y, z = gen_object(inst, rng, 3, 2), gen_object(inst, rng, 3, 2)
        tri = random_triple(inst, inst.zero_object(), y, z, rng)
        assert psi(tri).payload.rows == len(y.payload)
        assert psi(tri).payload.cols == 0
        assert_kernels_match_reference(inst, tri, rng)


def test_kernel_psi_non_square():
    x, y, z = fv.space(2), fv.space(3), fv.space(4)
    unit = fv.unit_object()
    t = fv.mor(unit, fv.tensor_obj(y, z), [[i + 1] for i in range(12)])
    b = fv.mor(fv.tensor_obj(z, x), unit, [[rat(j - 3, 2) for j in range(8)]])
    tri = ThickTriple(dom=x, cod=y, z=z, t=t, b=b)
    # T is 3x4 with T[y][z] = 4y + z + 1, B is 4x2 with B[z][x] = (2z + x - 3)/2
    want = [[sum((4 * i + k + 1) * rat(2 * k + j - 3, 2) for k in range(4))
             for j in range(2)] for i in range(3)]
    assert psi(tri) == fv.mor(x, y, want)
    assert_kernels_match_reference(fv, tri, trial_stream(15, "kernel-non-square", 0))


def test_kernels_graded_mixed_degrees():
    g32 = get_instance("graded(q=3/2)")
    rng = trial_stream(16, "kernel-graded", 0)
    x = g32.obj((-2, 1, 1, 3))
    y = g32.obj((1, -2, 0))
    z = g32.obj((2, -1, 0, -3, -1))
    tri = random_triple(g32, x, y, z, rng)
    assert not psi(tri).payload.is_zero()
    for _ in range(20):
        assert_kernels_match_reference(g32, tri, rng)


def test_bordism_instance_has_no_kernel():
    """rbord1 has no kernel, so it takes the composites; every matrix
    instance has all six, each with the parameters of its composite."""
    rb = get_instance("rbord1")
    for op in ("psi", "pre_compose", "post_compose", "hat_comp_witness", "add_triples",
               "canonical_thickener"):
        name = f"{op}_kernel"
        assert not hasattr(rb, name)
        assert all(hasattr(inst, name) for inst in MATRIX)
        kernel = list(inspect.signature(getattr(MatrixCategory, name)).parameters)
        composite = inspect.signature(getattr(thickened, f"{op}_composite")).parameters
        assert kernel[0] == "self" and kernel[1:] == list(composite), op
