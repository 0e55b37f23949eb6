from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traced.matrices import RatMatrix
from traced._rat import rat


def entries(rows, cols):
    return st.dictionaries(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
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
