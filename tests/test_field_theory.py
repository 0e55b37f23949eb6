import hashlib

import pytest

from traced import canonical_thickener, field_theory, get_instance, rat, trace_pairing
from traced.bordism import IN, OUT
from traced.errors import DirectedBordismRequired, DomainMismatch, NonIntegerLength
from traced.gens import gen_bordism, gen_point_set, trial_stream
from traced.matrices import RatMatrix

rb = get_instance("rbord1")
fv = get_instance("finvect")


def test_circle_value_diag():
    e = field_theory([[2, 0], [0, 3]])
    assert e.circle_value(2) == 13  # 2^2 + 3^2


def test_identity_isometry_maps_to_identity():
    e = field_theory([[1, 1], [0, 1]])
    x = rb.points(["a", "b"])
    assert e(rb.identity(x)) == fv.identity(fv.space(4))


def test_isometry_maps_to_the_permutation_of_factors():
    """a, b, c go to the targets r, p, q, listed as (p, q, r): the factor of
    a lands in the last position, so e_i (x) e_j (x) e_k -> e_j (x) e_k (x) e_i."""
    e = field_theory([[1, 1], [0, 1]])
    iso = rb.iso_mor(rb.points(["a", "b", "c"]), rb.points(["p", "q", "r"]),
                     {"a": "r", "b": "p", "c": "q"})
    ent = {(4 * j + 2 * k + i, 4 * i + 2 * j + k): 1
           for i in range(2) for j in range(2) for k in range(2)}
    assert e(iso) == fv.mor(fv.space(8), fv.space(8), RatMatrix(8, 8, ent))


def test_isometries_compose_and_tensor_with_bordisms():
    rng = trial_stream(22, "functor-iso", 0)
    e = field_theory(RatMatrix.from_rows([[1, rat(1, 2)], [2, 0]]))
    for _ in range(20):
        n = rng.randint(1, 3)
        x = gen_point_set(rb, rng, n, prefix="x")
        y = gen_point_set(rb, rng, n, prefix="y")
        z = gen_point_set(rb, rng, n, prefix="w")
        bord = gen_bordism(rb, x, y, rng, integer=True, directed=True)
        iso = rb.iso_mor(y, z, dict(zip(y.payload, rng.shuffle(z.payload))))
        assert e(rb.compose(iso, bord)) == fv.compose(e(iso), e(bord))
        assert e(rb.tensor(bord, iso)) == fv.tensor(e(bord), e(iso))


def test_interval_power():
    a = [[1, 1], [0, 1]]
    e = field_theory(a)
    seg = rb.interval("x", "y", 3)
    m = e(seg)
    assert m.payload == RatMatrix.from_rows([[1, 3], [0, 1]])


def test_functoriality_on_directed_bordisms():
    rng = trial_stream(21, "functor", 0)
    a = RatMatrix.from_rows([[1, rat(1, 2)], [2, 0]])
    e = field_theory(a)
    for k in range(50):
        n = rng.randint(1, 3)
        x = gen_point_set(rb, rng, n, prefix="x")
        y = gen_point_set(rb, rng, n, prefix="y")
        z = gen_point_set(rb, rng, n, prefix="w")
        f = gen_bordism(rb, x, y, rng, integer=True, directed=True, max_circles=0)
        g = gen_bordism(rb, y, z, rng, integer=True, directed=True, max_circles=0)
        assert fv.mor_equal(e(rb.compose(g, f)), fv.compose(e(g), e(f)))


def test_monoidal_on_disjoint_union():
    e = field_theory([[2, 0], [0, 3]])
    f = rb.interval("x", "y", 1)
    g = rb.interval("u", "v", 2)
    assert fv.mor_equal(e(rb.tensor(f, g)), fv.tensor(e(f), e(g)))


def test_partition_example_shear_matrix():
    """Two length-1 pieces glue to a circle of length 2; both routes give 2."""
    a = [[1, 1], [0, 1]]
    e = field_theory(a)
    s1 = rb.interval("x", "y", 1)
    s2 = rb.interval("y", "x", 1)
    sigma = rb.compose(s1, s2)
    glued = rb.glue_trace(sigma)
    lhs = rat(1)
    for c in glued.payload.circles:
        lhs *= e.circle_value(c)
    assert lhs == 2
    rhs = fv.scalar_value(trace_pairing(canonical_thickener(e(s2)), e(s1)))
    assert rhs == 2
    assert e.partition(s1, s2) == (lhs, rhs)


def test_partition_identity_matrix():
    n = 3
    e = field_theory(RatMatrix.identity(n))
    assert e.circle_value(5) == n


def test_partition_swap_matrix_odd_power():
    e = field_theory([[0, 1], [1, 0]])
    assert e.circle_value(3) == 0


def test_non_integer_length_rejected():
    e = field_theory([[2]])
    seg = rb.bord_mor(rb.points(["x"]), rb.points(["y"]),
                      [((IN, "x"), (OUT, "y"), rat(1, 2))])
    with pytest.raises(NonIntegerLength):
        e(seg)
    with pytest.raises(NonIntegerLength):
        e.circle_value(rat(3, 2))


def test_caps_require_symmetric_transfer():
    e = field_theory([[1, 1], [0, 1]])
    ab = rb.points(["a", "b"])
    cap = rb.bord_mor(rb.unit_object(), ab, [((OUT, "a"), (OUT, "b"), 1)])
    with pytest.raises(DirectedBordismRequired):
        e(cap)


def test_square_matrix_required():
    with pytest.raises(DomainMismatch):
        field_theory([[1, 2, 3], [4, 5, 6]])


def test_circles_inside_bordisms_multiply():
    e = field_theory([[2, 0], [0, 3]])
    x = rb.points(["x"])
    seg = rb.bord_mor(x, rb.points(["y"]), [((IN, "x"), (OUT, "y"), 1)], circles=[2])
    m = e(seg)
    # the free circle scales the whole operator by classtr(A^2) = 13
    assert m.payload == RatMatrix.from_rows([[26, 0], [0, 39]])


# sha256 of repr([(rows, cols, den, sorted(num.items())) of every E(f).payload])
# over the inputs of `_pinned_evaluations`, recorded when E still multiplied a
# permutation matrix into the Kronecker product of the strand powers.
E_PAYLOADS_SHA256 = "64fef6783c3bf13335e413e6f34b82196d826847775fae10739433b50e9a7750"

PIN_MATRICES = (
    [[rat(-2, 3)]],
    [[1, rat(1, 2)], [0, -3]],
    [[0, 1, rat(2, 3)], [rat(-1, 2), 0, 0], [1, 2, 0]],
)


def _pinned_evaluations():
    """Directed integer bordisms on 0-3 points, each beside thin strands and
    followed by a switching, and isometries, under three transfer matrices."""
    theories = [field_theory(a) for a in PIN_MATRICES]
    for t in range(12):
        rng = trial_stream(24, "functor-pin", t)
        n = rng.randint(0, 3)
        x = gen_point_set(rb, rng, n, prefix="x")
        y = gen_point_set(rb, rng, n, prefix="y")
        u = gen_point_set(rb, rng, rng.randint(1, 2), prefix="u")
        f = gen_bordism(rb, x, y, rng, integer=True, directed=True, max_circles=1)
        hybrid = rb.tensor(f, rb.identity(u))
        iso = rb.iso_mor(x, y, dict(zip(x.payload, rng.shuffle(y.payload))))
        for mor in (f, hybrid, rb.compose(rb.switching(y, u), hybrid), iso):
            for e in theories:
                m = e(mor).payload
                yield (m.rows, m.cols, m.den, sorted(m.num.items()))


def test_evaluations_pinned():
    text = repr(list(_pinned_evaluations()))
    assert hashlib.sha256(text.encode()).hexdigest() == E_PAYLOADS_SHA256
