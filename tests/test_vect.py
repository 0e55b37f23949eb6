import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traced import get_instance, phi, phi_inv, alpha, psi, rat, tr_hat
from traced.errors import CapabilityMissing, DomainMismatch, InstanceMismatch, NotEndo
from traced.gens import gen_matrix_mor, gen_object, trial_stream
from traced.matrices import RatMatrix
from traced.vect import _split_cod

fv = get_instance("finvect")
sv = get_instance("supervect")
gq = get_instance("graded(q=3/2)")
MATRIX_INSTANCES = pytest.mark.parametrize("inst", [fv, sv, gq], ids=lambda i: i.instance_id)

# Per-pair reference degree arithmetic: (add, sub, neg) on single degrees.
REFERENCE_DEGREES = {
    "finvect": (lambda a, b: 0, lambda a, b: 0, lambda a: 0),
    "supervect": (lambda a, b: (a + b) % 2, lambda a, b: (a - b) % 2, lambda a: a % 2),
    gq.instance_id: (operator.add, operator.sub, operator.neg),
}

# Payloads obj() keeps as given: supervect degrees beyond 0/1, nonzero finvect degrees.
raw_degrees = st.lists(st.integers(-4, 4), max_size=4)


def ref_tensor_degrees(inst, x, y):
    add = REFERENCE_DEGREES[inst.instance_id][0]
    return tuple(add(a, b) for a in x.payload for b in y.payload)


@MATRIX_INSTANCES
@given(xs=raw_degrees, ys=raw_degrees)
@settings(max_examples=60, deadline=None)
def test_tensor_and_dual_obj_match_per_pair_reference(inst, xs, ys):
    x, y = inst.obj(xs), inst.obj(ys)
    neg = REFERENCE_DEGREES[inst.instance_id][2]
    assert inst.tensor_obj(x, y) == inst.obj(ref_tensor_degrees(inst, x, y))
    assert inst.dual_obj(x) == inst.obj(neg(d) for d in xs)


@MATRIX_INSTANCES
@given(xs=st.lists(st.integers(-4, 4), min_size=1, max_size=4), ys=raw_degrees)
@settings(max_examples=60, deadline=None)
def test_split_cod_matches_per_pair_reference(inst, xs, ys):
    x, y = inst.obj(xs), inst.obj(ys)
    xd = inst.dual_obj(x)
    t = inst.zero_mor(inst.unit_object(), inst.tensor_obj(y, xd))
    sub = REFERENCE_DEGREES[inst.instance_id][1]
    expected = inst.obj(sub(d, xd.payload[0]) for d in t.target.payload[::len(xs)])
    assert _split_cod(inst, t, x, xd) == expected
    assert inst.tensor_obj(expected, xd) == t.target


def test_split_cod_rejects_a_target_that_does_not_factor():
    x = gq.obj((0, 1))
    t = gq.zero_mor(gq.unit_object(), gq.obj((0, 0)))
    with pytest.raises(DomainMismatch):
        _split_cod(gq, t, x, gq.dual_obj(x))


def test_y_is_not_recovered_when_x_is_the_zero_object():
    """Y (x) 0 = 0 for every Y, so alpha and phi refuse X = 0 by name."""
    x = fv.space(0)
    t = phi_inv(fv.zero_mor(x, fv.space(2)))
    for call in (lambda: _split_cod(fv, t, x, fv.dual_obj(x)), lambda: alpha(t, x),
                 lambda: phi(t, x)):
        with pytest.raises(DomainMismatch, match="cannot be recovered .* zero object"):
            call()


def closed_form_scalars(inst):
    """(switching, braiding, twist) scalars on homogeneous degrees m, n."""
    if inst is fv:
        return (lambda m, n: 1), (lambda m, n: 1), (lambda m: 1)
    if inst is sv:
        def sign(m, n):
            return (-1) ** (m * n)
        return sign, sign, (lambda m: 1)
    q = inst.q
    return ((lambda m, n: q ** (m * n + m * m)), (lambda m, n: q ** (m * n)),
            (lambda m: q ** (m * m)))


def homogeneous_degrees(inst):
    if inst is fv:
        return st.lists(st.just(0), max_size=4)
    if inst is sv:
        return st.lists(st.integers(0, 1), max_size=4)
    return st.lists(st.integers(-3, 3), max_size=4)


@MATRIX_INSTANCES
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_structural_entries_equal_closed_form_scalars(inst, data):
    x = inst.obj(data.draw(homogeneous_degrees(inst)))
    y = inst.obj(data.draw(homogeneous_degrees(inst)))
    switch, braid, twist = closed_form_scalars(inst)
    s, c = inst.switching(x, y).payload, inst.braiding_c(x, y).payload
    c_inv, theta = inst.braiding_c_inv(x, y).payload, inst.twist_theta(x).payload
    nx, ny = len(x.payload), len(y.payload)
    expected_s, expected_c, expected_c_inv = {}, {}, {}
    for i, m in enumerate(x.payload):
        for j, n in enumerate(y.payload):
            expected_s[(j * nx + i, i * ny + j)] = rat(switch(m, n))
            expected_c[(j * nx + i, i * ny + j)] = rat(braid(m, n))
            expected_c_inv[(i * ny + j, j * nx + i)] = 1 / rat(braid(m, n))
    assert dict(s.entries) == expected_s
    assert dict(c.entries) == expected_c
    assert dict(c_inv.entries) == expected_c_inv
    assert dict(theta.entries) == {(i, i): rat(twist(m)) for i, m in enumerate(x.payload)}


def test_compose_matrix_product():
    X, Y = fv.space(2), fv.space(1)
    g = fv.mor(X, Y, [[1, 0]])
    f = fv.mor(Y, X, [[2], [3]])
    assert fv.compose(g, f).payload.to_rows() == [[2]]


def test_identity_unit_law():
    rng = trial_stream(3, "vect-id", 0)
    for k in range(20):
        x = gen_object(fv, rng, 4, 0)
        y = gen_object(fv, rng, 4, 0)
        f = gen_matrix_mor(fv, x, y, rng)
        assert fv.mor_equal(fv.compose(fv.identity(y), f), f)
        assert fv.mor_equal(fv.compose(f, fv.identity(x)), f)


def test_tensor_kron_scalar():
    I = fv.unit_object()
    two = fv.mor(I, I, [[2]])
    three = fv.mor(I, I, [[3]])
    assert fv.tensor(two, three).payload.to_rows() == [[6]]


def test_tensor_unit_strict():
    X = fv.space(3)
    f = fv.mor(X, X, RatMatrix.identity(3))
    assert fv.tensor(f, fv.identity(fv.unit_object())) == f
    assert fv.tensor_obj(fv.unit_object(), X) == X
    assert fv.tensor_obj(X, fv.unit_object()) == X


def test_switching_permutation_2_3():
    X, Y = fv.space(2), fv.space(3)
    s = fv.switching(X, Y)
    # e_i (x) f_j at index i*3+j goes to f_j (x) e_i at index j*2+i
    for i in range(2):
        for j in range(3):
            assert s.payload.entry(j * 2 + i, i * 3 + j) == 1
    assert len(s.payload.entries) == 6


def test_supervect_odd_odd_sign():
    P = sv.space(0, 1)
    s = sv.switching(P, P)
    assert s.payload.to_rows() == [[-1]]


def test_unit_objects():
    assert len(fv.unit_object().payload) == 1
    rb = get_instance("rbord1")
    assert rb.unit_object().payload == ()


def test_instance_mismatch():
    X = fv.space(2)
    f = fv.mor(X, X, RatMatrix.identity(2))
    with pytest.raises(InstanceMismatch):
        sv.compose(f, f)


def test_domain_mismatch():
    f = fv.mor(fv.space(2), fv.space(3), RatMatrix.zero(3, 2))
    with pytest.raises(DomainMismatch):
        fv.compose(f, f)


def test_dual_data_zigzags():
    for inst, x in ((fv, fv.space(3)), (sv, sv.space(1, 1)), (sv, sv.space(2, 3))):
        xd, ev, coev = inst.dual_data(x)
        idx, idxd = inst.identity(x), inst.identity(xd)
        zig1 = inst.compose(inst.tensor(idx, ev), inst.tensor(coev, idx))
        zig2 = inst.compose(inst.tensor(ev, idxd), inst.tensor(idxd, coev))
        assert inst.mor_equal(zig1, idx)
        assert inst.mor_equal(zig2, idxd)


def test_coev_dim_one():
    x = fv.space(1)
    _, ev, coev = fv.dual_data(x)
    assert ev.payload.to_rows() == [[1]]
    assert coev.payload.to_rows() == [[1]]


def test_coev_diagonal_dim_three():
    x = fv.space(3)
    _, _, coev = fv.dual_data(x)
    assert sorted(coev.payload.entries) == [(0, 0), (4, 0), (8, 0)]


def test_phi_rank_one():
    X = fv.space(2)
    Y = fv.space(2)
    xd = fv.dual_obj(X)
    # t(1) = e_1 (x) e^2 gives the matrix unit in row 1, column 2
    t = fv.mor(fv.unit_object(), fv.tensor_obj(Y, xd), RatMatrix(4, 1, {(1, 0): 1}))
    assert phi(t, X).payload.to_rows() == [[0, 1], [0, 0]]


def test_phi_of_coev_is_identity():
    X = fv.space(3)
    _, _, coev = fv.dual_data(X)
    assert phi(coev, X) == fv.identity(X)


def test_phi_contraction_oracle():
    rng = trial_stream(11, "phi-oracle", 0)
    for k in range(200):
        x = gen_object(fv, rng, 4, 0)
        y = gen_object(fv, rng, 4, 0)
        t = gen_matrix_mor(fv, fv.unit_object(), fv.tensor_obj(y, fv.dual_obj(x)), rng)
        m = phi(t, x)
        nx = len(x.payload)
        # independent oracle: phi is the reshape of the coefficient vector
        for (row, _), v in t.payload.entries.items():
            assert m.payload.entry(row // nx, row % nx) == v
        assert len(m.payload.entries) == len(t.payload.entries)


def test_alpha_triple_and_trace():
    X = fv.space(3)
    _, _, coev = fv.dual_data(X)
    tri = alpha(coev, X)
    assert psi(tri) == fv.identity(X)
    assert fv.scalar_value(tr_hat(tri)) == 3


def test_alpha_zero():
    X = fv.space(2)
    xd = fv.dual_obj(X)
    t = fv.zero_mor(fv.unit_object(), fv.tensor_obj(X, xd))
    assert fv.scalar_value(tr_hat(alpha(t, X))) == 0


def test_alpha_trace_matches_classical():
    rng = trial_stream(5, "alpha-classical", 0)
    for k in range(200):
        x = fv.space(rng.randint(1, 4))
        t = gen_matrix_mor(fv, fv.unit_object(), fv.tensor_obj(x, fv.dual_obj(x)), rng)
        assert fv.scalar_value(tr_hat(alpha(t, x))) == fv.classical_trace(phi(t, x))


def test_classical_trace_example():
    X = fv.space(2)
    f = fv.mor(X, X, [[1, 2], [3, 4]])
    assert fv.classical_trace(f) == 5
    assert fv.classical_trace(fv.zero_mor(X, X)) == 0
    with pytest.raises(NotEndo):
        fv.classical_trace(fv.mor(X, fv.space(3), RatMatrix.zero(3, 2)))


def test_super_trace_values():
    X = sv.space(1, 1)
    assert sv.super_trace(sv.identity(X)) == 0
    f = sv.mor(X, X, [[7, 0], [0, 2]])
    assert sv.super_trace(f) == 5
    assert sv.classical_trace(f) == 9


def test_even_morphism_enforced():
    X = sv.space(1, 1)
    with pytest.raises(DomainMismatch):
        sv.mor(X, X, [[0, 1], [0, 0]])


@pytest.mark.parametrize("inst, degree", [(fv, 1), (sv, 2), (sv, -1)],
                         ids=["finvect-1", "supervect-2", "supervect-minus-1"])
def test_mor_refuses_ends_outside_the_grading_group(inst, degree):
    """obj keeps a raw degree, but tensor_obj reduces it, so a morphism on
    such an object would break the strict unit law; mor refuses either end."""
    raw = inst.obj((degree,))
    reduced = inst.tensor_obj(raw, inst.unit_object())
    assert reduced != raw
    for src, tgt in ((raw, reduced), (reduced, raw), (raw, raw)):
        with pytest.raises(DomainMismatch, match=r"^object \(-?\d,\) has degrees outside"):
            inst.mor(src, tgt, [[1]])
    assert inst.mor(reduced, reduced, [[1]]).source == reduced


@pytest.mark.parametrize("degree", [1.5, 1.0, True, "1", rat(1)], ids=repr)
def test_obj_refuses_a_degree_that_is_not_an_int(degree):
    for inst in (fv, sv, gq):
        with pytest.raises(TypeError, match="a degree must be an int"):
            inst.obj([0, degree])


def test_direct_sum_objects():
    a = fv.space(2)
    b = fv.space(3)
    assert fv.direct_sum(a, b).obj == fv.space(5)
    assert fv.zero_object() == fv.space(0)


def test_direct_sum_flattening_order():
    """(Z1 (+) Z2) (x) X flattens as the block sum (Z1 (x) X) (+) (Z2 (x) X)."""
    z1, z2, x = fv.space(2), fv.space(3), fv.space(2)
    ds = fv.direct_sum(z1, z2)
    lhs = fv.tensor(ds.inj1, fv.identity(x))
    # index map oracle: basis (i, k) of Z1 (x) X lands at (i * dimX + k)
    for i in range(2):
        for k in range(2):
            assert lhs.payload.entry(i * 2 + k, i * 2 + k) == 1
    assert len(lhs.payload.entries) == 4


def test_add_mor_cancellation():
    rng = trial_stream(8, "addmor", 0)
    x = fv.space(3)
    f = gen_matrix_mor(fv, x, x, rng)
    assert fv.add_mor(f, fv.negate_mor(f)).payload.is_zero()


def test_capability_gate():
    rb = get_instance("rbord1")
    with pytest.raises(CapabilityMissing):
        rb.braiding_c(rb.unit_object(), rb.unit_object())
    with pytest.raises(CapabilityMissing):
        rb.zero_object()
    with pytest.raises(CapabilityMissing):
        rb.dual_data(rb.unit_object())


def test_phi_injectivity_basis_argument():
    """Exhaustive check on dims <= 5: distinct basis tensors map to distinct
    nonzero matrix units, so phi is injective on the whole space."""
    for n in range(1, 6):
        x = fv.space(n)
        y = fv.space(n)
        target = fv.tensor_obj(y, fv.dual_obj(x))
        seen = set()
        for row in range(n * n):
            t = fv.mor(fv.unit_object(), target, RatMatrix(n * n, 1, {(row, 0): 1}))
            m = phi(t, x)
            assert not m.payload.is_zero()
            key = tuple(sorted(m.payload.entries))
            assert key not in seen
            seen.add(key)


def test_psi_alpha_bijection_small_dims():
    rng = trial_stream(4, "bijection", 0)
    for n in range(1, 6):
        x = fv.space(n)
        y = fv.space(min(n + 1, 5))
        for k in range(20):
            f = gen_matrix_mor(fv, x, y, rng)
            assert fv.mor_equal(psi(alpha(phi_inv(f), x)), f)
