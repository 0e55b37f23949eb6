import pytest

from traced import get_instance, psi, tr_hat, tensor_triples, canonical_thickener, rat
from traced.gens import gen_matrix_mor, gen_object, gen_triple, trial_stream
from traced.suites import tensor_triples_uniform_crossing

g2 = get_instance("graded(q=2)")
g3 = get_instance("graded(q=3)")


def test_instance_id_round_trip():
    assert g2.instance_id == "graded(q=2)"
    assert get_instance("graded(q=3/2)").q == rat(3, 2)


@pytest.mark.parametrize("first, second", [
    ("graded(q=6/10)", "graded(q=3/5)"),
    ("graded(q=5/9)", "graded(q=10/18)"),
])
def test_spellings_of_one_q_share_one_instance(first, second):
    """An unreduced q names the same instance as its lowest terms, in
    either call order, and does not replace the cached one."""
    a = get_instance(first)
    assert get_instance(second) is a
    assert get_instance(first) is a
    assert a.instance_id in (first, second) and "/10)" not in a.instance_id


def test_braiding_scalars():
    a, b = g2.line(1), g2.line(1)
    assert g2.braiding_c(a, b).payload.to_rows() == [[2]]
    z = g2.space({0: 2})
    c = g2.braiding_c(z, g2.line(3))
    assert all(v == 1 for v in c.payload.entries.values())


def test_braiding_not_symmetric():
    a = g2.line(1)
    double = g2.compose(g2.braiding_c(a, a), g2.braiding_c(a, a))
    assert double.payload.to_rows() == [[4]]


def test_braiding_inverse():
    rng = trial_stream(2, "binv", 0)
    for k in range(50):
        x = gen_object(g2, rng, 3, 3)
        y = gen_object(g2, rng, 3, 3)
        both = g2.compose(g2.braiding_c_inv(x, y), g2.braiding_c(x, y))
        assert g2.mor_equal(both, g2.identity(g2.tensor_obj(x, y)))


def test_twist_scalars():
    assert g2.twist_theta(g2.line(0)) == g2.identity(g2.line(0))
    assert g2.twist_theta(g2.line(2)).payload.to_rows() == [[16]]
    assert g2.twist_theta(g2.unit_object()) == g2.identity(g2.unit_object())


def test_twist_equation_scalar_check():
    # degrees (1,1) at q=3: both sides scale by 3^4
    a, b = g3.line(1), g3.line(1)
    lhs = g3.twist_theta(g3.tensor_obj(a, b))
    rhs = g3.compose(
        g3.braiding_c(b, a),
        g3.compose(g3.braiding_c(a, b), g3.tensor(g3.twist_theta(a), g3.twist_theta(b))),
    )
    assert lhs.payload.to_rows() == [[81]]
    assert g3.mor_equal(lhs, rhs)


def test_switching_scalar():
    a, b = g2.line(1), g2.line(2)
    assert g2.switching(a, b).payload.to_rows() == [[8]]
    assert g2.switching(a, a).payload.to_rows() == [[4]]  # q^{mn} * q^{m^2} at (1,1)
    # degree 0 reduces to the plain swap
    z = g2.space({0: 3})
    assert g2.mor_equal(g2.switching(z, b), g2.plain_swap(z, b))


def test_structural_scalars_at_q_three_halves_with_negative_degrees():
    g = get_instance("graded(q=3/2)")
    a, b = g.line(-1), g.line(2)
    assert g.switching(a, b).payload.to_rows() == [[rat(2, 3)]]  # q^{-2 + 1}
    assert g.switching(b, a).payload.to_rows() == [[rat(9, 4)]]  # q^{-2 + 4}
    assert g.braiding_c(a, b).payload.to_rows() == [[rat(4, 9)]]  # q^{-2}
    assert g.braiding_c_inv(a, b).payload.to_rows() == [[rat(9, 4)]]
    assert g.twist_theta(g.line(-2)).payload.to_rows() == [[rat(81, 16)]]  # q^4
    # on X (x) X with X of degrees (-2, -1), e_i (x) e_j sits at index 2i + j
    s = g.switching(g.obj((-2, -1)), g.obj((-2, -1))).payload
    assert s.entry(2, 1) == rat(3, 2) ** 6  # pair (-2, -1): q^{2 + 4}
    assert s.entry(1, 2) == rat(3, 2) ** 3  # pair (-1, -2): q^{2 + 1}


def test_graded_dual_dims():
    x = g2.space({-1: 2, 0: 1, 3: 1})
    xd = g2.dual_obj(x)
    assert g2.dims(xd) == {-3: 1, 0: 1, 1: 2}


def test_graded_dual_zigzag_and_trace():
    x = g2.space({-2: 1, 1: 2})
    xd, ev, coev = g2.dual_data(x)
    idx = g2.identity(x)
    zig = g2.compose(g2.tensor(idx, ev), g2.tensor(coev, idx))
    assert g2.mor_equal(zig, idx)
    # balanced trace of the identity is the plain dimension
    val = g2.compose(ev, g2.compose(g2.switching(x, xd), coev))
    assert g2.scalar_value(val) == 3


def test_line_trace_is_one():
    line = g2.line(1)
    assert g2.scalar_value(tr_hat(canonical_thickener(g2.identity(line)))) == 1


def test_degree_zero_object_trace_is_dimension():
    x = g2.space({0: 4})
    assert g2.scalar_value(tr_hat(canonical_thickener(g2.identity(x)))) == 4


def test_switching_naturality_blocks():
    rng = trial_stream(6, "gnat", 0)
    for k in range(200):
        x1 = gen_object(g2, rng, 3, 3)
        x2 = gen_object(g2, rng, 3, 3)
        y1 = gen_object(g2, rng, 3, 3)
        y2 = gen_object(g2, rng, 3, 3)
        g = gen_matrix_mor(g2, x1, x2, rng)
        h = gen_matrix_mor(g2, y1, y2, rng)
        lhs = g2.compose(g2.switching(x2, y2), g2.tensor(g, h))
        rhs = g2.compose(g2.tensor(h, g), g2.switching(x1, y1))
        assert g2.mor_equal(lhs, rhs)


def test_crossing_lemma_homogeneous():
    rng = trial_stream(9, "crossing", 0)
    I = g2.unit_object()
    for k in range(200):
        v = gen_object(g2, rng, 3, 3)
        w = gen_object(g2, rng, 3, 3)
        f = gen_matrix_mor(g2, v, I, rng)
        g = gen_matrix_mor(g2, I, w, rng)
        idv, idw = g2.identity(v), g2.identity(w)
        over = g2.compose(g2.tensor(idw, f), g2.braiding_c(v, w))
        flat = g2.tensor(f, idw)
        under = g2.compose(g2.tensor(idw, f), g2.braiding_c_inv(w, v))
        assert g2.mor_equal(over, flat) and g2.mor_equal(flat, under)
        over2 = g2.compose(g2.braiding_c(v, w), g2.tensor(idv, g))
        flat2 = g2.tensor(g, idv)
        under2 = g2.compose(g2.braiding_c_inv(w, v), g2.tensor(idv, g))
        assert g2.mor_equal(over2, flat2) and g2.mor_equal(flat2, under2)


def test_plain_swap_equals_switching_inside_tr_hat():
    """On every degree-0 vector of X (x) Z the balanced switching IS the
    plain swap (the q^{mn} and q^{m^2} factors cancel), which is exactly why
    the literal plain-swap negative control cannot find a counterexample."""
    rng = trial_stream(12, "plain", 0)
    for k in range(100):
        x = gen_object(g2, rng, 3, 3)
        tr = gen_triple(g2, x, x, rng, 3, 3)
        with_s = tr_hat(tr)
        with_swap = g2.compose(tr.b, g2.compose(g2.plain_swap(tr.dom, tr.z), tr.t))
        assert g2.mor_equal(with_s, with_swap)


def test_uniform_crossing_convention_breaks_psi():
    """Regression: reading both crossings of the triple tensor as the
    over-crossing destroys multiplicativity at mixed degrees."""
    line, dual_line = g2.line(1), g2.line(-1)
    I = g2.unit_object()
    one_t = g2.mor(I, g2.tensor_obj(line, dual_line), [[1]])
    one_b = g2.mor(g2.tensor_obj(dual_line, line), I, [[1]])
    from traced.thickened import ThickTriple

    tr = ThickTriple(dom=line, cod=line, z=dual_line, t=one_t, b=one_b)
    good = tensor_triples(tr, tr)
    assert g2.mor_equal(psi(good), g2.tensor(psi(tr), psi(tr)))
    bad = tensor_triples_uniform_crossing(tr, tr)
    wrong = psi(bad)
    assert not g2.mor_equal(wrong, g2.tensor(psi(tr), psi(tr)))
    # off by exactly q^{-2mn} = 1/4 on the (1,1) component
    assert wrong.payload.to_rows() == [[rat(1, 4)]]


def test_degenerate_q_rejected():
    from traced.graded import GradedVect

    for q in (0, 1, -1):
        with pytest.raises(ValueError):
            GradedVect(q)
