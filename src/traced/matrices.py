"""Sparse matrices over exact rationals.

The canonical form never stores a zero entry, so structural equality of two
matrices is bit-exact equality of linear maps.  Rows index the target basis,
columns the source basis, and matrices act on column vectors; composition of
morphisms is therefore plain matrix product.
"""

from __future__ import annotations

from ._rat import rat, rat_str


class RatMatrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        clean = {}
        for (i, j), v in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
            v = rat(v)
            if v:
                clean[(i, j)] = v
        self.entries = clean

    @classmethod
    def from_rows(cls, data) -> "RatMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        ent = {}
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                ent[(i, j)] = rat(v)
        return cls(rows, cols, ent)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols)

    def __eq__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.entries == other.entries

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = None

    def entry(self, i: int, j: int):
        return self.entries.get((i, j), rat(0))

    def is_zero(self) -> bool:
        return not self.entries

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        by_row = {}
        for (k, j), v in other.entries.items():
            by_row.setdefault(k, []).append((j, v))
        acc = {}
        for (i, k), v in self.entries.items():
            for j, w in by_row.get(k, ()):
                key = (i, j)
                prev = acc.get(key)
                acc[key] = v * w if prev is None else prev + v * w
        return RatMatrix(self.rows, other.cols, acc)

    def kron(self, other: "RatMatrix") -> "RatMatrix":
        """Kronecker product with row-major index flattening on both sides."""
        ent = {}
        oc, orr = other.cols, other.rows
        for (i1, j1), v1 in self.entries.items():
            for (i2, j2), v2 in other.entries.items():
                ent[(i1 * orr + i2, j1 * oc + j2)] = v1 * v2
        return RatMatrix(self.rows * orr, self.cols * oc, ent)

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        acc = dict(self.entries)
        for key, v in other.entries.items():
            prev = acc.get(key)
            acc[key] = v if prev is None else prev + v
        return RatMatrix(self.rows, self.cols, acc)

    def __neg__(self) -> "RatMatrix":
        return RatMatrix(self.rows, self.cols, {k: -v for k, v in self.entries.items()})

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + (-other)

    def reshape(self, rows: int, cols: int) -> "RatMatrix":
        """The same entries read row-major into a rows x cols matrix:
        entry (i, j) moves to flat index i * self.cols + j."""
        if rows * cols != self.rows * self.cols:
            raise ValueError(f"cannot reshape {self.rows}x{self.cols} to {rows}x{cols}")
        sc = self.cols
        return RatMatrix(rows, cols, {divmod(i * sc + j, cols): v
                                      for (i, j), v in self.entries.items()})

    def transpose(self) -> "RatMatrix":
        return RatMatrix(self.cols, self.rows, {(j, i): v for (i, j), v in self.entries.items()})

    def trace(self):
        """Sum of diagonal entries (requires a square matrix)."""
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        total = rat(0)
        for (i, j), v in self.entries.items():
            if i == j:
                total += v
        return total

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
        return f"RatMatrix({self.rows}x{self.cols}, {len(self.entries)} entries)"
