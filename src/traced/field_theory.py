"""Field-theory functors from 1-d bordisms to exact linear algebra.

The exact functor E assigns the same rational vector space Q^d to every
point, so E(X) = Q^(d^|X|), and is monoidal: disjoint union goes to the
Kronecker product.  A bordism f: X -> Y whose arcs have integer lengths
n_1, ..., n_k, taken in source-label order, evaluates to

    E(f) = P @ (E(circles) (x) A^(n_1) (x) ... (x) A^(n_k)),

where E(circles) is the 1x1 matrix holding the product of classtr(A^n)
over the free circles, and P is the permutation of tensor factors that
carries each in-point's factor to the out-point its arc ends at.  Thin
strands, the zero-length arcs of an isometry, give A^0 = I, so an isometry
evaluates to P.  Arcs must join an in-point to an out-point: a cap or cup
traversal would need A to equal its own transpose, so evaluation on such
bordisms is refused rather than silently wrong.
"""

from __future__ import annotations

from .bordism import IN, OUT
from .core import Morphism, get_instance
from .errors import DirectedBordismRequired, DomainMismatch, NonIntegerLength
from .matrices import RatMatrix
from .thickened import canonical_thickener, trace_pairing
from ._rat import rat


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
        src_labels, tgt_labels = f.source.payload, f.target.payload
        scalar = rat(1)
        for c in f.payload.circles:
            scalar *= self.circle_value(c)
        mapping, powers = {}, {}
        for (a, b, l) in f.payload.arcs:
            if a[0] != IN or b[0] != OUT:
                raise DirectedBordismRequired(
                    f"arc {a} -- {b} does not run from an in-point to an out-point"
                )
            mapping[a[1]] = b[1]
            powers[a[1]] = self.power(self._int_length(l) if l else 0)
        factors = RatMatrix(1, 1, {(0, 0): scalar})
        for x in src_labels:
            factors = factors.kron(powers[x])
        mat = self._permutation(src_labels, tgt_labels, mapping) @ factors
        return self.vect.mor(self.obj(f.source), self.obj(f.target), mat)

    def partition(self, s1: Morphism, s2: Morphism):
        """The partition identity's sides (closed, paired) for s1: X -> Y and
        s2: Y -> X: the value of the closed bordism glue_trace(s1 . s2), and
        the trace pairing of the canonical thickening of E(s2) against E(s1)."""
        rb = get_instance("rbord1")
        closed = self.vect.scalar_value(self(rb.glue_trace(rb.compose(s1, s2))))
        paired = self.vect.scalar_value(trace_pairing(canonical_thickener(self(s2)), self(s1)))
        return closed, paired

    def _permutation(self, src_labels, tgt_labels, mapping) -> RatMatrix:
        n = len(src_labels)
        d = self.d
        tgt_pos = {lab: k for k, lab in enumerate(tgt_labels)}
        ent = {}
        for col in range(d ** n):
            digits = _digits(col, d, n)
            out = [0] * n
            for i, lab in enumerate(src_labels):
                out[tgt_pos[mapping[lab]]] = digits[i]
            ent[(_undigits(out, d), col)] = 1
        return RatMatrix(d ** n, d ** n, ent)


def field_theory(a) -> FieldTheory:
    if not isinstance(a, RatMatrix):
        a = RatMatrix.from_rows(a)
    return FieldTheory(a)


def _digits(value: int, base: int, width: int):
    out = [0] * width
    for i in range(width - 1, -1, -1):
        out[i] = value % base
        value //= base
    return out


def _undigits(digits, base: int) -> int:
    value = 0
    for dgt in digits:
        value = value * base + dgt
    return value

