"""Z-graded rational vector spaces with a q-scalar braiding and twist.

For a fixed nonzero rational q (default 2, roots of unity excluded by
staying inside Q), homogeneous components braid by a scalar and twist by a
square:

    c_{X,Y}:  x_m (x) y_n  |->  q^{mn} * (y_n (x) x_m)
    theta_X:  x_m          |->  q^{m^2} * x_m
    s_{X,Y} = (id_Y (x) theta_X) . c_{X,Y}   (scalar q^{mn + m^2} on (m, n))

With q^2 != 1 the braiding is genuinely non-symmetric (c_{Y,X} . c_{X,Y}
scales degree (1,1) by q^2), while the twist still makes the switching
behave like the plain swap on every degree-0 vector of X (x) Z, because
q^{m(-m) + m^2} = 1.  Morphisms are degree-preserving; duals negate degrees.

The instance is also additive (degreewise direct sums, from MatrixCategory),
so the full additivity and multiplicativity suites can run in one category.
"""

from __future__ import annotations

from .core import Morphism, ObjectRef
from .vect import MatrixCategory, indexable
from ._rat import rat, rat_str


class GradedVect(MatrixCategory):
    def __init__(self, q=2):
        q = rat(q)
        if not q:
            raise ValueError("q must be nonzero")
        if q * q == 1:
            raise ValueError("q must be a rational with q^2 != 1"
                             " (keeps the braiding non-symmetric)")
        self.q = q
        self.instance_id = f"graded(q={rat_str(q)})"

    def _braid_scalar(self, a, b):
        return self.q ** (a * b)

    def _twist_scalar(self, a):
        return self.q ** (a * a)

    def _switch_scalar(self, a, b):
        return self.q ** (a * b + a * a)

    # objects --------------------------------------------------------------

    def space(self, dims: dict) -> ObjectRef:
        """Object from a degree -> dimension table, basis ordered by degree."""
        degrees = []
        for d in sorted(dims):
            n = dims[d]
            if n < 0:
                raise ValueError("negative dimension")
            degrees.extend([d] * indexable(n))
        return self.obj(degrees)

    def line(self, degree: int) -> ObjectRef:
        return self.obj((degree,))

    def dims(self, x: ObjectRef) -> dict:
        out: dict[int, int] = {}
        for d in x.payload:
            out[d] = out.get(d, 0) + 1
        return dict(sorted(out.items()))

    # extra switchings used by the negative-control suites -------------------

    def plain_swap(self, x: ObjectRef, y: ObjectRef) -> Morphism:
        """Degree-blind swap x (x) y |-> y (x) x, no q scalar, no twist."""
        self._own_obj(x)
        self._own_obj(y)
        return self._swap_matrix(x, y, lambda a, b: 1)
