from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traced.matrices import RatMatrix
from traced._rat import rat


def entries(rows, cols):
    """Entries with mixed denominators, zeros included, so that lcms,
    cancellations and gcd reductions all occur."""
    if not (rows and cols):
        return st.just({})
    return st.dictionaries(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
        st.fractions(min_value=-6, max_value=6, max_denominator=12),
        max_size=rows * cols,
    )


def matrices(rows, cols):
    return entries(rows, cols).map(lambda e: RatMatrix(rows, cols, e))


def test_canonical_form_drops_zeros():
    m = RatMatrix(2, 2, {(0, 0): 0, (1, 1): rat(1, 2)})
    assert (0, 0) not in m.entries
    assert m.entry(1, 1) == Fraction(1, 2)
    assert m.entry(0, 1) == 0


def test_from_rows_and_back():
    m = RatMatrix.from_rows([[1, 2], ["3/2", 0]])
    assert m.to_rows() == [[1, 2], [rat(3, 2), 0]]


def test_matmul_example():
    a = RatMatrix.from_rows([[1, 0]])
    b = RatMatrix.from_rows([[2], [3]])
    assert (a @ b).to_rows() == [[2]]


def test_kron_scalars():
    a = RatMatrix.from_rows([[2]])
    b = RatMatrix.from_rows([[3]])
    assert a.kron(b).to_rows() == [[6]]


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        RatMatrix.identity(2) @ RatMatrix.identity(3)
    with pytest.raises(ValueError):
        RatMatrix.identity(2) + RatMatrix.identity(3)


def test_trace_and_power():
    m = RatMatrix.from_rows([[1, 2], [3, 4]])
    assert m.trace() == 5
    assert m.power(0) == RatMatrix.identity(2)
    assert m.power(3) == m @ m @ m


@given(matrices(2, 3), matrices(3, 2), matrices(2, 2))
@settings(max_examples=50, deadline=None)
def test_matmul_associative(a, b, c):
    assert (c @ a) @ b == c @ (a @ b)


@given(matrices(2, 2), matrices(2, 2), matrices(3, 3), matrices(3, 3))
@settings(max_examples=50, deadline=None)
def test_kron_interchange(f1, f2, g1, g2):
    lhs = (f1 @ f2).kron(g1 @ g2)
    rhs = f1.kron(g1) @ f2.kron(g2)
    assert lhs == rhs


@given(matrices(2, 3), matrices(2, 3))
@settings(max_examples=50, deadline=None)
def test_addition_group(a, b):
    assert a + b == b + a
    assert a + (-a) == RatMatrix.zero(2, 3)
    assert (a + b) - b == a


@given(matrices(3, 3))
@settings(max_examples=30, deadline=None)
def test_transpose_involution(a):
    assert a.transpose().transpose() == a


@given(matrices(2, 6))
@settings(max_examples=30, deadline=None)
def test_reshape_is_row_major(a):
    flat = [v for row in a.to_rows() for v in row]
    for rows, cols in ((1, 12), (12, 1), (3, 4), (6, 2)):
        b = a.reshape(rows, cols)
        assert [v for row in b.to_rows() for v in row] == flat
        assert b.reshape(2, 6) == a


def test_reshape_checks_size():
    assert RatMatrix(0, 3).reshape(4, 0) == RatMatrix(4, 0)
    with pytest.raises(ValueError):
        RatMatrix.identity(2).reshape(3, 1)


# -- the integer core against a dict-of-Fraction reference ----------------------
#
# A reference matrix is a plain {(i, j): Fraction} dict, possibly holding
# zeros; the operations below are the textbook definitions on it.

def ref_clean(d):
    return {k: v for k, v in d.items() if v}


def ref_matmul(a, b):
    acc = {}
    for (i, k), v in a.items():
        for (k2, j), w in b.items():
            if k == k2:
                acc[(i, j)] = acc.get((i, j), 0) + v * w
    return acc


def ref_kron(a, b, b_rows, b_cols):
    return {(i1 * b_rows + i2, j1 * b_cols + j2): v * w
            for (i1, j1), v in a.items() for (i2, j2), w in b.items()}


def ref_add(a, b):
    acc = dict(a)
    for k, v in b.items():
        acc[k] = acc.get(k, 0) + v
    return acc


def ref_neg(a):
    return {k: -v for k, v in a.items()}


def ref_reshape(a, old_cols, cols):
    return {divmod(i * old_cols + j, cols): v for (i, j), v in a.items()}


def ref_transpose(a):
    return {(j, i): v for (i, j), v in a.items()}


def ref_power(a, n, size):
    result = {(i, i): Fraction(1) for i in range(size)}
    for _ in range(n):
        result = ref_matmul(result, a)
    return result


def assert_canonical(m):
    assert type(m.den) is int and m.den >= 1
    assert all(type(v) is int and v != 0 for v in m.num.values())
    assert all(0 <= i < m.rows and 0 <= j < m.cols for i, j in m.num)
    assert gcd(m.den, *m.num.values()) == 1
    if not m.num:
        assert m.den == 1


def assert_matches(m, ref, rows, cols):
    assert_canonical(m)
    assert (m.rows, m.cols) == (rows, cols)
    assert dict(m.entries) == ref_clean(ref)
    assert m == RatMatrix(rows, cols, ref)


dims = st.integers(0, 4)


@given(dims, dims, dims, st.data())
@settings(max_examples=60, deadline=None)
def test_matmul_matches_reference(n, k, p, data):
    a, b = data.draw(entries(n, k)), data.draw(entries(k, p))
    assert_matches(RatMatrix(n, k, a) @ RatMatrix(k, p, b), ref_matmul(a, b), n, p)


@given(dims, dims, dims, dims, st.data())
@settings(max_examples=60, deadline=None)
def test_kron_matches_reference(r1, c1, r2, c2, data):
    a, b = data.draw(entries(r1, c1)), data.draw(entries(r2, c2))
    assert_matches(RatMatrix(r1, c1, a).kron(RatMatrix(r2, c2, b)), ref_kron(a, b, r2, c2),
                   r1 * r2, c1 * c2)


@given(dims, dims, st.data())
@settings(max_examples=60, deadline=None)
def test_add_sub_neg_match_reference(rows, cols, data):
    a, b = data.draw(entries(rows, cols)), data.draw(entries(rows, cols))
    ma, mb = RatMatrix(rows, cols, a), RatMatrix(rows, cols, b)
    assert_matches(ma, a, rows, cols)
    assert_matches(ma + mb, ref_add(a, b), rows, cols)
    assert_matches(-ma, ref_neg(a), rows, cols)
    assert_matches(ma - mb, ref_add(a, ref_neg(b)), rows, cols)
    zero = ma + (-ma)
    assert_canonical(zero)
    assert zero == RatMatrix.zero(rows, cols) and zero.den == 1 and zero.is_zero()


@given(st.sampled_from([(1, 12), (12, 1), (2, 6), (3, 4), (4, 3), (6, 2)]), st.data())
@settings(max_examples=60, deadline=None)
def test_reshape_transpose_match_reference(shape, data):
    a = data.draw(entries(3, 4))
    m = RatMatrix(3, 4, a)
    rows, cols = shape
    assert_matches(m.reshape(rows, cols), ref_reshape(a, 4, cols), rows, cols)
    assert_matches(m.transpose(), ref_transpose(a), 4, 3)


@given(st.integers(0, 3), st.integers(0, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_trace_and_power_match_reference(size, n, data):
    a = data.draw(entries(size, size))
    m = RatMatrix(size, size, a)
    assert m.trace() == sum((v for (i, j), v in a.items() if i == j), Fraction(0))
    assert type(m.trace()) is Fraction
    assert_matches(m.power(n), ref_power(a, n, size), size, size)
    assert_matches(RatMatrix.identity(size), ref_power(a, 0, size), size, size)


@given(dims, dims, st.data())
@settings(max_examples=60, deadline=None)
def test_entries_round_trip(rows, cols, data):
    m = RatMatrix(rows, cols, data.draw(entries(rows, cols)))
    assert RatMatrix(m.rows, m.cols, m.entries) == m
    assert all(type(v) is Fraction for v in m.entries.values())
    assert m.to_rows() == [[m.entries.get((i, j), 0) for j in range(cols)] for i in range(rows)]


def test_equal_across_construction_paths():
    half = RatMatrix(1, 1, {(0, 0): rat(1, 2)})
    assert RatMatrix.from_rows([["2/4"]]) == half
    assert RatMatrix.from_rows([[Fraction(3, 6)]]) == half
    assert (half.num, half.den) == ({(0, 0): 1}, 2)


def test_products_reduce_common_factors():
    row = RatMatrix.from_rows([["1/2", "1/2"]])
    col = RatMatrix.from_rows([[2], [2]])
    product = row @ col
    assert (product.num, product.den) == ({(0, 0): 2}, 1)
    k = RatMatrix.from_rows([["1/2"]]).kron(RatMatrix.from_rows([["2/3"]]))
    assert (k.num, k.den) == ({(0, 0): 1}, 3)
    s = RatMatrix.from_rows([["1/6", "1/3"]]) + RatMatrix.from_rows([["1/6", "-1/3"]])
    assert (s.num, s.den) == ({(0, 0): 1}, 3)


def test_entries_view_is_read_only():
    m = RatMatrix.identity(2)
    with pytest.raises(TypeError):
        m.entries[(0, 1)] = 1
    with pytest.raises(ValueError):
        RatMatrix(2, 2, {(2, 0): 1})
