"""Sparse matrices over exact rationals, stored fraction-free.

A matrix holds nonzero integer numerators `num: {(i, j): int}` over one
common denominator `den >= 1`, so entry (i, j) is num[(i, j)] / den.  The
form is canonical: no zero numerator is stored, gcd(den, *num.values()) is
1, and the zero matrix has den == 1, so structural equality of two matrices
is bit-exact equality of linear maps.  Rows index the target basis,
columns the source basis, and matrices act on column vectors; composition of
morphisms is therefore plain matrix product.

Every operation works on Python ints and reduces once per result.  The
scalar type `rat` appears only at the boundary: the public constructor
takes rationals, and `entries`, `entry`, `trace` and `to_rows` give them
back.
"""

from __future__ import annotations

from math import gcd, lcm
from types import MappingProxyType

from ._rat import rat, rat_str


class RatMatrix:
    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, rows: int, cols: int, entries=None, den: int | None = None):
        """`RatMatrix(rows, cols, {(i, j): rational})` checks bounds, drops
        zeros and puts the entries over the lcm of their denominators.

        With `den` given, `entries` are integer numerators over `den`, known
        nonzero and in range (every operation builds its result this way);
        they are only reduced by their common gcd."""
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        if den is None:
            entries, den = _from_rationals(rows, cols, entries or {})
        else:
            g = gcd(den, *entries.values())
            if g != 1:
                den //= g
                entries = {k: v // g for k, v in entries.items()}
        self.num = entries
        self.den = den

    @classmethod
    def from_rows(cls, data) -> "RatMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        ent = {}
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                ent[(i, j)] = v
        return cls(rows, cols, ent)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)}, 1)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols)

    def __eq__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return ((self.rows, self.cols, self.den, self.num)
                == (other.rows, other.cols, other.den, other.num))

    __hash__ = None

    @property
    def entries(self):
        """The nonzero entries as a read-only {(i, j): rat} mapping, derived
        from `num` and `den` on each access."""
        den = self.den
        return MappingProxyType({k: rat(v, den) for k, v in self.num.items()})

    def entry(self, i: int, j: int):
        return rat(self.num.get((i, j), 0), self.den)

    def is_zero(self) -> bool:
        return not self.num

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        by_row = {}
        for (k, j), v in other.num.items():
            by_row.setdefault(k, []).append((j, v))
        acc = {}
        for (i, k), v in self.num.items():
            for j, w in by_row.get(k, ()):
                key = (i, j)
                acc[key] = acc.get(key, 0) + v * w
        return RatMatrix(self.rows, other.cols, {k: v for k, v in acc.items() if v},
                         self.den * other.den)

    def kron(self, other: "RatMatrix") -> "RatMatrix":
        """Kronecker product with row-major index flattening on both sides."""
        ent = {}
        oc, orr = other.cols, other.rows
        for (i1, j1), v1 in self.num.items():
            for (i2, j2), v2 in other.num.items():
                ent[(i1 * orr + i2, j1 * oc + j2)] = v1 * v2
        return RatMatrix(self.rows * orr, self.cols * oc, ent, self.den * other.den)

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        # both operands over lcm(self.den, other.den) == self.den * sa
        g = gcd(self.den, other.den)
        sa, sb = other.den // g, self.den // g
        acc = {k: v * sa for k, v in self.num.items()}
        for k, v in other.num.items():
            s = acc.get(k, 0) + v * sb
            if s:
                acc[k] = s
            else:
                del acc[k]
        return RatMatrix(self.rows, self.cols, acc, self.den * sa)

    def __neg__(self) -> "RatMatrix":
        return RatMatrix(self.rows, self.cols, {k: -v for k, v in self.num.items()}, self.den)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + (-other)

    def reshape(self, rows: int, cols: int) -> "RatMatrix":
        """The same entries read row-major into a rows x cols matrix:
        entry (i, j) moves to flat index i * self.cols + j."""
        if rows * cols != self.rows * self.cols:
            raise ValueError(f"cannot reshape {self.rows}x{self.cols} to {rows}x{cols}")
        sc = self.cols
        return RatMatrix(rows, cols, {divmod(i * sc + j, cols): v
                                      for (i, j), v in self.num.items()}, self.den)

    def transpose(self) -> "RatMatrix":
        return RatMatrix(self.cols, self.rows, {(j, i): v for (i, j), v in self.num.items()},
                         self.den)

    def trace(self):
        """Sum of diagonal entries (requires a square matrix)."""
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return rat(sum(v for (i, j), v in self.num.items() if i == j), self.den)

    def power(self, n: int) -> "RatMatrix":
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if n < 0:
            raise ValueError("negative matrix power")
        result = RatMatrix.identity(self.rows)
        base = self
        while n:
            if n & 1:
                result = result @ base
            base = base @ base if n > 1 else base
            n >>= 1
        return result

    def to_rows(self):
        return [[self.entry(i, j) for j in range(self.cols)] for i in range(self.rows)]

    def __repr__(self):
        if self.rows * self.cols <= 36:
            body = "; ".join(
                " ".join(rat_str(self.entry(i, j)) for j in range(self.cols))
                for i in range(self.rows)
            )
            return f"RatMatrix({self.rows}x{self.cols}: {body})"
        return f"RatMatrix({self.rows}x{self.cols}, {len(self.num)} entries)"


def over_common_denominator(values: dict) -> tuple:
    """{key: rational} as ({key: integer numerator}, den), with den the lcm of
    the denominators.  For reduced nonzero rationals gcd(den, *num) == 1."""
    den = lcm(*[v.denominator for v in values.values()])
    return {k: v.numerator * (den // v.denominator) for k, v in values.items()}, den


def _from_rationals(rows: int, cols: int, entries) -> tuple:
    """Canonical (num, den) of {(i, j): rational}: bounds checked, zeros dropped."""
    vals = {}
    for (i, j), v in entries.items():
        if not (0 <= i < rows and 0 <= j < cols):
            raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
        if type(v) is not int and type(v) is not rat:
            v = rat(v)
        if v:
            vals[(i, j)] = v
    return over_common_denominator(vals)
