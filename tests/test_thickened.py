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
from traced.bordism import IN, OUT, Bord
from traced.gens import (
    gen_bordism,
    gen_endo_pair,
    gen_matrix_mor,
    gen_morphism,
    gen_object,
    gen_point_set,
    gen_triple,
    trial_stream,
)
from traced.matrices import RatMatrix
from traced.thickened import (
    add_triples_composite,
    canonical_thickener_composite,
    hat_comp_witness_composite,
    post_compose_composite,
    pre_compose_composite,
    psi_composite,
    tr_hat_composite,
)

fv = get_instance("finvect")
sv = get_instance("supervect")
g2 = get_instance("graded(q=2)")
rb = get_instance("rbord1")
ALL = [fv, sv, g2, rb]
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


def test_kernels_of_each_instance():
    """Every matrix instance has the six contraction kernels and no tr_hat
    kernel; rbord1 has exactly the five gluing kernels, and no add_triples
    or canonical_thickener kernel, as it is neither additive nor has duals.
    Each kernel takes the parameters of its composite."""
    matrix_ops = {"psi", "pre_compose", "post_compose", "hat_comp_witness", "add_triples",
                  "canonical_thickener"}
    gluing_ops = {"psi", "tr_hat", "pre_compose", "post_compose", "hat_comp_witness"}
    for inst, ops in [(inst, matrix_ops) for inst in MATRIX] + [(rb, gluing_ops)]:
        kernels = {name for name in dir(inst) if name.endswith("_kernel")}
        assert kernels == {f"{op}_kernel" for op in ops}, inst.instance_id
        for op in ops:
            kernel = inspect.signature(getattr(inst, f"{op}_kernel")).parameters
            composite = inspect.signature(getattr(thickened, f"{op}_composite")).parameters
            assert list(kernel) == list(composite), (inst.instance_id, op)


# -- gluing kernels of rbord1 against the whiskered reference ------------------


def assert_gluing_kernels_match_reference(tri, f, g, tr2=None):
    """Every gluing kernel returns what its reference composite returns:
    psi on tri, and tr_hat when tri is an endomorphism triple; pre_compose
    with f: W -> dom; post_compose with g: cod -> V; and hat_comp_witness of
    tri and tr2, a triple into dom, when given."""
    assert psi(tri) == psi_composite(tri)
    if tri.dom == tri.cod:
        assert tr_hat(tri) == tr_hat_composite(tri)
    assert pre_compose(tri, f).b == pre_compose_composite(tri, f)
    assert post_compose(g, tri).t == post_compose_composite(g, tri)
    if tr2 is not None:
        assert hat_comp_witness(tri, tr2).g == hat_comp_witness_composite(tri, tr2)


def bord_triple(x, y, z, t_arcs, b_arcs, t_circles=()):
    """The rbord1 triple over point sets x -> y with thickening object z,
    from the arcs ((side, label), (side, label), length) of t and b."""
    x, y, z = rb.points(x), rb.points(y), rb.points(z)
    unit = rb.unit_object()
    t = rb.bord_mor(unit, rb.tensor_obj(y, z), t_arcs, t_circles)
    b = rb.bord_mor(rb.tensor_obj(z, x), unit, b_arcs)
    return ThickTriple(dom=x, cod=y, z=z, t=t, b=b)


def random_gluing_case(rng, nx, ny, nz):
    """A random triple over point sets of sizes nx -> ny with a thickening
    object of size nz, and random f: W -> X and g: Y -> V with |W| = |X|
    and |V| = |Y|, isometries one time in four."""
    x, y = gen_point_set(rb, rng, nx, "x"), gen_point_set(rb, rng, ny, "y")
    z = gen_point_set(rb, rng, nz, "z")
    unit = rb.unit_object()
    t = gen_bordism(rb, unit, rb.tensor_obj(y, z), rng)
    b = gen_bordism(rb, rb.tensor_obj(z, x), unit, rng)
    f = gen_morphism(rb, gen_point_set(rb, rng, nx, "w"), x, rng)
    g = gen_morphism(rb, y, gen_point_set(rb, rng, ny, "v"), rng)
    return ThickTriple(dom=x, cod=y, z=z, t=t, b=b), f, g


@pytest.mark.parametrize("nx, ny, nz", [(0, 2, 2), (0, 0, 2), (0, 2, 0), (2, 0, 0), (2, 2, 0),
                                        (0, 0, 0)])
def test_gluing_kernels_with_empty_domain_or_thickening_object(nx, ny, nz):
    """X or Z (or both) is the empty point set; with X = Y = {} the triple
    is an endomorphism triple, so tr_hat is checked too."""
    rng = trial_stream(20, f"gluing-{nx}-{ny}-{nz}", 0)
    for _ in range(20):
        assert_gluing_kernels_match_reference(*random_gluing_case(rng, nx, ny, nz))


def test_gluing_kernels_on_endomorphism_triples():
    """dom and cod share their labels, which the composite of psi works
    around with a relabelled copy of dom; hat_comp_witness gets a second
    endomorphism triple over the same points with Z labels of its own."""
    rng = trial_stream(21, "gluing-endo", 0)
    for _ in range(40):
        x, tri = gen_endo_pair(rb, rng)
        tr2 = gen_triple(rb, x, x, rng, z_prefix="w")
        f = gen_morphism(rb, x, x, rng)
        assert_gluing_kernels_match_reference(tri, f, gen_morphism(rb, x, x, rng), tr2)


def test_gluing_kernels_with_isometry_operands():
    """pre_compose and post_compose with identities, with a permutation of
    the triple's own points and with relabellings to fresh points."""
    x, fresh = rb.points(["x1", "x2"]), rb.points(["p", "q"])
    tri = bord_triple(["x1", "x2"], ["x1", "x2"], ["z1", "z2"],
                      [((OUT, "x1"), (OUT, "z2"), 1), ((OUT, "x2"), (OUT, "z1"), 2)],
                      [((IN, "z1"), (IN, "x1"), 3), ((IN, "z2"), (IN, "x2"), 4)])
    for iso in (rb.identity(x), rb.iso_mor(x, x, {"x1": "x2", "x2": "x1"})):
        assert_gluing_kernels_match_reference(tri, iso, iso)
    assert_gluing_kernels_match_reference(tri, rb.iso_mor(fresh, x, {"p": "x2", "q": "x1"}),
                                          rb.iso_mor(x, fresh, {"x1": "q", "x2": "p"}))


def test_gluing_kernels_close_circles():
    """Each gluing closes a loop: psi and tr_hat through Z, pre_compose
    through a cap on X, post_compose through a cup on Y and
    hat_comp_witness through a cup and a cap on X.  Free circles of the
    operands are kept."""
    tri = bord_triple(["x1", "x2"], ["y1", "y2"], ["z1", "z2"],
                      [((OUT, "y1"), (OUT, "y2"), 1), ((OUT, "z1"), (OUT, "z2"), 2)],
                      [((IN, "z1"), (IN, "z2"), 3), ((IN, "x1"), (IN, "x2"), 4)])
    cap = rb.bord_mor(rb.unit_object(), tri.dom, [((OUT, "x1"), (OUT, "x2"), 5)])
    cup = rb.bord_mor(tri.cod, rb.unit_object(), [((IN, "y1"), (IN, "y2"), 6)])
    tr2 = bord_triple([], ["x1", "x2"], ["w1", "w2"],
                      [((OUT, "x1"), (OUT, "x2"), 1), ((OUT, "w1"), (OUT, "w2"), 1)],
                      [((IN, "w1"), (IN, "w2"), 2)])
    assert psi(tri).payload.circles == (5,)
    assert pre_compose(tri, cap).b.payload.circles == (9,)
    assert post_compose(cup, tri).t.payload.circles == (7,)
    assert hat_comp_witness(tri, tr2).g.payload.circles == (5,)
    assert_gluing_kernels_match_reference(tri, cap, cup, tr2)
    endo = bord_triple(["x"], ["x"], ["z1", "z2", "z3"],
                       [((OUT, "x"), (OUT, "z3"), 1), ((OUT, "z1"), (OUT, "z2"), 2)],
                       [((IN, "z1"), (IN, "z2"), 3), ((IN, "z3"), (IN, "x"), 4)], t_circles=[7])
    assert psi(endo).payload == Bord.make([((IN, "x"), (OUT, "x"), 5)], [5, 7])
    assert tr_hat(endo).payload == Bord.make([], [5, 5, 7])
    x = rb.points(["x"])
    assert_gluing_kernels_match_reference(endo, rb.interval("x", "x", 2), rb.identity(x))


def assert_same_domain_mismatch(kernel_path, composite):
    """Both calls raise DomainMismatch with one message, which is returned."""
    with pytest.raises(DomainMismatch) as kernel_error:
        kernel_path()
    with pytest.raises(DomainMismatch) as composite_error:
        composite()
    assert str(kernel_error.value) == str(composite_error.value)
    return str(kernel_error.value)


def test_gluing_kernels_raise_the_label_collisions_of_their_composites():
    """f.source meeting Z in pre_compose, f.target meeting Z in
    post_compose and Z2 meeting Z1 in hat_comp_witness."""
    tri = bord_triple(["x"], ["y"], ["z"], [((OUT, "y"), (OUT, "z"), 1)],
                      [((IN, "z"), (IN, "x"), 2)])
    f, g = rb.interval("z", "x", 1), rb.interval("y", "z", 1)
    tr2 = bord_triple(["u"], ["x"], ["z"], [((OUT, "x"), (OUT, "z"), 1)],
                      [((IN, "z"), (IN, "u"), 2)])
    collisions = [
        assert_same_domain_mismatch(lambda: pre_compose(tri, f),
                                    lambda: pre_compose_composite(tri, f)),
        assert_same_domain_mismatch(lambda: post_compose(g, tri),
                                    lambda: post_compose_composite(g, tri)),
        assert_same_domain_mismatch(lambda: hat_comp_witness(tri, tr2),
                                    lambda: hat_comp_witness_composite(tri, tr2)),
    ]
    assert collisions == ["label collision in disjoint union: ('z',) + ('z',)",
                          "label collision in disjoint union: ('z',) + ('z',)",
                          "label collision in disjoint union: ('z', 'x') + ('z',)"]
