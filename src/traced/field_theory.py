"""Field-theory functors from 1-d bordisms to exact linear algebra.

The exact functor E assigns the same rational vector space Q^d to every
point, so E(X) = Q^(d^|X|), and is monoidal: disjoint union goes to the
Kronecker product.  A bordism f: X -> Y whose arcs have integer lengths
n_1, ..., n_k, taken in source-label order, has the Kronecker product

    K = E(circles) (x) A^(n_1) (x) ... (x) A^(n_k),

where E(circles) is the 1x1 matrix holding the product of classtr(A^n)
over the free circles.  Row r of K belongs to the basis tensor whose digits
are read in source order; E(f) is K with each row moved to the index of the
same digits read in target order, each factor at the position of the
out-point its arc ends at.  Thin strands, the zero-length arcs of an
isometry, give A^0 = I, so an isometry evaluates to a permutation of tensor
factors.  Arcs must join an in-point to an out-point: a cap or cup
traversal would need A to equal its own transpose, so evaluation on such
bordisms is refused rather than silently wrong.
"""

from __future__ import annotations

from math import prod

from .bordism import IN, OUT
from .core import Morphism, get_instance
from .errors import DirectedBordismRequired, DomainMismatch, NonIntegerLength
from .matrices import RatMatrix
from .thickened import canonical_thickener, trace_pairing


class FieldTheory:
    """Exact evaluation of 1-d bordisms against a square rational matrix."""

    def __init__(self, a: RatMatrix):
        if a.rows != a.cols or a.rows == 0:
            raise DomainMismatch("the transfer matrix must be square and nonempty")
        self.a = a
        self.d = a.rows
        self.vect = get_instance("finvect")
        self._powers = {}

    def power(self, n: int) -> RatMatrix:
        if n not in self._powers:
            self._powers[n] = self.a.power(n)
        return self._powers[n]

    def obj(self, x):
        """E(X) = Q^(d^|X|)."""
        return self.vect.space(self.d ** len(x.payload))

    def circle_value(self, length):
        n = self._int_length(length)
        return self.power(n).trace()

    @staticmethod
    def _int_length(length):
        if length.denominator != 1 or length <= 0:
            raise NonIntegerLength(f"evaluation needs positive integer lengths, got {length}")
        return int(length.numerator)

    def __call__(self, f: Morphism) -> Morphism:
        if f.instance_id != "rbord1":
            raise DomainMismatch("field theory evaluates 1-d bordism morphisms")
        scalar = prod(self.circle_value(c) for c in f.payload.circles)
        d, n = self.d, len(f.target.payload)
        weight = {lab: d ** (n - 1 - pos) for pos, lab in enumerate(f.target.payload)}
        strands = {}
        for (a, b, l) in f.payload.arcs:
            if a[0] != IN or b[0] != OUT:
                raise DirectedBordismRequired(
                    f"arc {a} -- {b} does not run from an in-point to an out-point"
                )
            strands[a[1]] = (weight[b[1]], self.power(self._int_length(l) if l else 0))
        k, rows = RatMatrix(1, 1, {(0, 0): scalar}), [0]
        for x in f.source.payload:
            step, power = strands[x]
            k = k.kron(power)
            rows = [r + i * step for r in rows for i in range(d)]
        ent = {(rows[i], j): v for (i, j), v in k.num.items()}
        mat = RatMatrix(k.rows, k.cols, ent, k.den)
        return self.vect.mor(self.obj(f.source), self.obj(f.target), mat)

    def partition(self, s1: Morphism, s2: Morphism):
        """The partition identity's sides (closed, paired) for s1: X -> Y and
        s2: Y -> X: the value of the closed bordism glue_trace(s1 . s2), and
        the trace pairing of the canonical thickening of E(s2) against E(s1)."""
        rb = get_instance("rbord1")
        closed = self.vect.scalar_value(self(rb.glue_trace(rb.compose(s1, s2))))
        paired = self.vect.scalar_value(trace_pairing(canonical_thickener(self(s2)), self(s1)))
        return closed, paired


def field_theory(a) -> FieldTheory:
    if not isinstance(a, RatMatrix):
        a = RatMatrix.from_rows(a)
    return FieldTheory(a)
